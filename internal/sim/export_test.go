package sim

import "math/bits"

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.words) / (c.ways + 2) }

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for s := c.ways; s < len(c.words); s += c.ways + 2 {
		n += bits.OnesCount64(c.words[s] >> validShift & (1<<c.ways - 1))
	}
	return n
}
