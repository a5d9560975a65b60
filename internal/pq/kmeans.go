// Package pq implements product quantization's encoding half (paper Sec.
// II-B): vectors are split into C subspaces, K prototypes are learned per
// subspace (Eq. 5), and a query is encoded to one prototype index per
// subspace (Eq. 7). The tables those indices gather from (Eqs. 6 and 8) are
// built and queried by internal/tabular's kernels.
//
// Two encoders are provided: an exact nearest-prototype encoder (k-means
// prototypes, argmin assignment) and a locality-sensitive-hashing encoder
// whose sign-bit hashing costs O(log K) comparisons per subspace, matching
// the latency model the paper adopts from MADDNESS.
package pq

import (
	"math"
	"math/rand"
)

// KMeans clusters rows of x (n rows, dim d, flattened row-major) into k
// centers using k-means++ seeding and Lloyd iterations. It returns the
// centers flattened [k*d] and the final assignment of each row.
func KMeans(x []float64, n, d, k, iters int, rng *rand.Rand) ([]float64, []int) {
	if n == 0 || d == 0 || k <= 0 {
		panic("pq: KMeans with empty input or k<=0")
	}
	centers := make([]float64, k*d)
	// k-means++ seeding.
	first := rng.Intn(n)
	copy(centers[:d], x[first*d:(first+1)*d])
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = sqDist(x[i*d:(i+1)*d], centers[:d])
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, v := range minDist {
			total += v
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			var acc float64
			for i, v := range minDist {
				acc += v
				if acc >= r {
					pick = i
					break
				}
			}
		}
		copy(centers[c*d:(c+1)*d], x[pick*d:(pick+1)*d])
		for i := range minDist {
			if dd := sqDist(x[i*d:(i+1)*d], centers[c*d:(c+1)*d]); dd < minDist[i] {
				minDist[i] = dd
			}
		}
	}
	assign := make([]int, n)
	counts := make([]int, k)
	for it := 0; it < iters; it++ {
		changed := false
		for i := 0; i < n; i++ {
			row := x[i*d : (i+1)*d]
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if dd := sqDist(row, centers[c*d:(c+1)*d]); dd < bestD {
					best, bestD = c, dd
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		// Recompute centers.
		for i := range centers {
			centers[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			crow := centers[c*d : (c+1)*d]
			row := x[i*d : (i+1)*d]
			for j, v := range row {
				crow[j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random row.
				copy(centers[c*d:(c+1)*d], x[rng.Intn(n)*d:][:d])
				continue
			}
			inv := 1 / float64(counts[c])
			crow := centers[c*d : (c+1)*d]
			for j := range crow {
				crow[j] *= inv
			}
		}
	}
	// Final assignment against final centers.
	for i := 0; i < n; i++ {
		row := x[i*d : (i+1)*d]
		best, bestD := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			if dd := sqDist(row, centers[c*d:(c+1)*d]); dd < bestD {
				best, bestD = c, dd
			}
		}
		assign[i] = best
	}
	return centers, assign
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}
