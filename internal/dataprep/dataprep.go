// Package dataprep implements the paper's data preparation (Sec. VI-A):
// block addresses are dissected into fixed-width bit segments forming the
// model input sequence, and labels are delta bitmaps marking which address
// deltas occur within a look-forward window, enabling multiple simultaneous
// prefetch predictions.
package dataprep

import (
	"fmt"

	"dart/internal/mat"
	"dart/internal/trace"
)

// Config controls dataset construction.
type Config struct {
	History     int // T: input sequence length
	SegmentBits int // c: bits per address segment
	Segments    int // S: segments per address (covers the block address)
	LookForward int // window size for future deltas
	DeltaRange  int // R: deltas in [-R, R]\{0} are labelled; bitmap size = 2R
}

// Default returns the configuration used by our experiments: 9 segments of
// 6 bits cover a 54-bit block address as in TransFetch's fine-grained
// segmentation, with a 64-wide delta bitmap.
func Default() Config {
	return Config{History: 8, SegmentBits: 6, Segments: 9, LookForward: 16, DeltaRange: 32}
}

// InputDim is the model input feature count: address segments plus one
// normalised PC feature.
func (c Config) InputDim() int { return c.Segments + 1 }

// OutputDim is the delta-bitmap width DO = 2R.
func (c Config) OutputDim() int { return 2 * c.DeltaRange }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.History <= 0 || c.SegmentBits <= 0 || c.Segments <= 0 || c.LookForward <= 0 || c.DeltaRange <= 0 {
		return fmt.Errorf("dataprep: non-positive field in %+v", c)
	}
	if c.SegmentBits > 16 {
		return fmt.Errorf("dataprep: segment bits %d > 16", c.SegmentBits)
	}
	return nil
}

// DeltaToBit maps a delta in [-R, R]\{0} to its bitmap index, or -1.
func (c Config) DeltaToBit(delta int64) int {
	if delta == 0 || delta < -int64(c.DeltaRange) || delta > int64(c.DeltaRange) {
		return -1
	}
	if delta < 0 {
		return int(delta + int64(c.DeltaRange)) // [-R, -1] -> [0, R-1]
	}
	return int(delta + int64(c.DeltaRange) - 1) // [1, R] -> [R, 2R-1]
}

// BitToDelta inverts DeltaToBit.
func (c Config) BitToDelta(bit int) int64 {
	if bit < c.DeltaRange {
		return int64(bit - c.DeltaRange)
	}
	return int64(bit - c.DeltaRange + 1)
}

// SegmentBlock writes the normalised segment features of a block address
// into dst (length Segments). Segment i holds bits [i*c, (i+1)*c), scaled to
// [0, 1].
func (c Config) SegmentBlock(block uint64, dst []float64) {
	maxVal := float64(uint64(1)<<c.SegmentBits - 1)
	for i := 0; i < c.Segments; i++ {
		seg := (block >> (uint(i) * uint(c.SegmentBits))) & (1<<c.SegmentBits - 1)
		dst[i] = float64(seg) / maxVal
	}
}

// InputRow writes one access's model input features into row (length
// InputDim): the block address's segments, then the normalised PC feature,
// the PC's low 16 bits scaled to [0, 1].
func (c Config) InputRow(block, pc uint64, row []float64) {
	c.SegmentBlock(block, row[:c.Segments])
	row[c.Segments] = float64(pc&0xFFFF) / 65535.0
}

// Dataset is a prepared training/evaluation set.
type Dataset struct {
	Cfg    Config
	X      *mat.Tensor // [N, T, InputDim] segmented addresses + PC feature
	Y      *mat.Tensor // [N, 1, OutputDim] delta bitmaps
	Blocks []uint64    // current block address of each sample (for prefetch reconstruction)
}

// Build converts a trace into model inputs and delta-bitmap labels. Sample t
// uses accesses [t-History+1, t] as input and the deltas of the next
// LookForward accesses as its label.
func Build(recs []trace.Record, cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(recs) - cfg.History - cfg.LookForward
	if n <= 0 {
		return nil, fmt.Errorf("dataprep: trace of %d records too short for history %d + window %d",
			len(recs), cfg.History, cfg.LookForward)
	}
	din, dout := cfg.InputDim(), cfg.OutputDim()
	ds := &Dataset{
		Cfg:    cfg,
		X:      mat.NewTensor(n, cfg.History, din),
		Y:      mat.NewTensor(n, 1, dout),
		Blocks: make([]uint64, n),
	}
	for s := 0; s < n; s++ {
		cur := s + cfg.History - 1 // index of the current access
		sm := ds.X.Sample(s)
		for t := 0; t < cfg.History; t++ {
			r := recs[s+t]
			cfg.InputRow(r.Block(), r.PC, sm.Row(t))
		}
		curBlock := recs[cur].Block()
		ds.Blocks[s] = curBlock
		lrow := ds.Y.Sample(s).Row(0)
		for w := 1; w <= cfg.LookForward; w++ {
			delta := int64(recs[cur+w].Block()) - int64(curBlock)
			if bit := cfg.DeltaToBit(delta); bit >= 0 {
				lrow[bit] = 1
			}
		}
	}
	return ds, nil
}

// Split partitions the dataset into train and test halves at the given
// fraction, preserving temporal order (train on the past, test on the
// future), as trace-driven prefetcher studies require.
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	nTrain := int(float64(d.X.N) * trainFrac)
	if nTrain < 1 {
		nTrain = 1
	}
	if nTrain >= d.X.N {
		nTrain = d.X.N - 1
	}
	idxTrain := make([]int, nTrain)
	for i := range idxTrain {
		idxTrain[i] = i
	}
	idxTest := make([]int, d.X.N-nTrain)
	for i := range idxTest {
		idxTest[i] = nTrain + i
	}
	return d.subset(idxTrain), d.subset(idxTest)
}

func (d *Dataset) subset(idx []int) *Dataset {
	out := &Dataset{
		Cfg:    d.Cfg,
		X:      d.X.Gather(idx),
		Y:      d.Y.Gather(idx),
		Blocks: make([]uint64, len(idx)),
	}
	for i, s := range idx {
		out.Blocks[i] = d.Blocks[s]
	}
	return out
}
