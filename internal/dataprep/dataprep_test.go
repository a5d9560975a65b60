package dataprep

import (
	"testing"
	"testing/quick"

	"dart/internal/trace"
)

func TestDeltaBitRoundTrip(t *testing.T) {
	cfg := Default()
	for delta := -int64(cfg.DeltaRange); delta <= int64(cfg.DeltaRange); delta++ {
		if delta == 0 {
			if cfg.DeltaToBit(0) != -1 {
				t.Fatal("delta 0 should not map to a bit")
			}
			continue
		}
		bit := cfg.DeltaToBit(delta)
		if bit < 0 || bit >= cfg.OutputDim() {
			t.Fatalf("delta %d -> bit %d out of range", delta, bit)
		}
		if got := cfg.BitToDelta(bit); got != delta {
			t.Fatalf("round trip %d -> %d -> %d", delta, bit, got)
		}
	}
}

func TestDeltaBitOutOfRange(t *testing.T) {
	cfg := Default()
	if cfg.DeltaToBit(int64(cfg.DeltaRange)+1) != -1 {
		t.Fatal("over-range delta mapped")
	}
	if cfg.DeltaToBit(-int64(cfg.DeltaRange)-1) != -1 {
		t.Fatal("under-range delta mapped")
	}
}

func TestDeltaBitBijective(t *testing.T) {
	cfg := Default()
	seen := map[int]int64{}
	for delta := -int64(cfg.DeltaRange); delta <= int64(cfg.DeltaRange); delta++ {
		if delta == 0 {
			continue
		}
		bit := cfg.DeltaToBit(delta)
		if prev, dup := seen[bit]; dup {
			t.Fatalf("bit %d maps deltas %d and %d", bit, prev, delta)
		}
		seen[bit] = delta
	}
	if len(seen) != cfg.OutputDim() {
		t.Fatalf("bitmap uses %d of %d bits", len(seen), cfg.OutputDim())
	}
}

func TestSegmentBlockRange(t *testing.T) {
	cfg := Default()
	f := func(block uint64) bool {
		dst := make([]float64, cfg.Segments)
		cfg.SegmentBlock(block, dst)
		for _, v := range dst {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentBlockDistinguishesAddresses(t *testing.T) {
	cfg := Default()
	a := make([]float64, cfg.Segments)
	b := make([]float64, cfg.Segments)
	cfg.SegmentBlock(0x12345, a)
	cfg.SegmentBlock(0x12346, b)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("adjacent blocks produced identical segments")
	}
}

func seqTrace(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			InstrID: uint64(i),
			PC:      0x400000,
			Addr:    uint64(i) << trace.BlockBits, // unit-stride blocks
		}
	}
	return recs
}

func TestBuildSequentialTraceLabels(t *testing.T) {
	cfg := Config{History: 4, SegmentBits: 6, Segments: 4, LookForward: 3, DeltaRange: 8}
	ds, err := Build(seqTrace(100), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Unit-stride: every sample's future deltas are +1, +2, +3.
	for s := 0; s < ds.Y.N; s++ {
		row := ds.Y.Sample(s).Row(0)
		for _, d := range []int64{1, 2, 3} {
			if row[cfg.DeltaToBit(d)] != 1 {
				t.Fatalf("sample %d missing delta %d", s, d)
			}
		}
		var set int
		for _, v := range row {
			if v > 0.5 {
				set++
			}
		}
		if set != 3 {
			t.Fatalf("sample %d has %d set bits, want 3", s, set)
		}
	}
}

func TestBuildBlocksRecorded(t *testing.T) {
	cfg := Config{History: 4, SegmentBits: 6, Segments: 4, LookForward: 3, DeltaRange: 8}
	ds, err := Build(seqTrace(50), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sample s's current access is record s+History-1 with block s+3.
	for s := 0; s < len(ds.Blocks); s++ {
		if ds.Blocks[s] != uint64(s+3) {
			t.Fatalf("sample %d current block %d, want %d", s, ds.Blocks[s], s+3)
		}
	}
}

func TestBuildShortTraceFails(t *testing.T) {
	cfg := Default()
	if _, err := Build(seqTrace(5), cfg); err == nil {
		t.Fatal("expected error for short trace")
	}
}

func TestBuildInvalidConfigFails(t *testing.T) {
	if _, err := Build(seqTrace(100), Config{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestSplitTemporalOrder(t *testing.T) {
	cfg := Config{History: 4, SegmentBits: 6, Segments: 4, LookForward: 3, DeltaRange: 8}
	ds, err := Build(seqTrace(200), cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.75)
	if train.X.N+test.X.N != ds.X.N {
		t.Fatalf("split sizes %d + %d != %d", train.X.N, test.X.N, ds.X.N)
	}
	// Train samples precede test samples in time.
	if train.Blocks[train.X.N-1] >= test.Blocks[0] {
		t.Fatal("temporal split broken")
	}
}

func TestPositiveRateOnSyntheticApps(t *testing.T) {
	cfg := Default()
	for _, app := range trace.Apps()[:2] {
		recs := trace.Generate(app, 3000)
		ds, err := Build(recs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pr := positiveRate(ds)
		if pr <= 0 || pr >= 0.9 {
			t.Fatalf("%s positive rate %v implausible", app.Name, pr)
		}
	}
}

// positiveRate reports the fraction of set label bits, a quick check that
// the delta range captures the workload.
func positiveRate(d *Dataset) float64 {
	var set int
	for _, v := range d.Y.Data {
		if v > 0.5 {
			set++
		}
	}
	return float64(set) / float64(len(d.Y.Data))
}
