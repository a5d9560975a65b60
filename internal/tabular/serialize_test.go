package tabular

import (
	"bytes"
	"testing"

	"dart/internal/nn"
)

func TestHierarchySaveLoadRoundTrip(t *testing.T) {
	m, x, _ := smallModelAndData(21)
	res := Tabularize(m, x, Config{Kernel: KernelConfig{K: 16, C: 2}, FineTune: true, Seed: 7})
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, res.Hierarchy, nn.CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Layers) != len(res.Hierarchy.Layers) {
		t.Fatalf("loaded %d layers, want %d", len(loaded.Layers), len(res.Hierarchy.Layers))
	}
	for s := 0; s < 4; s++ {
		want := res.Hierarchy.Query(x.Sample(s))
		got := loaded.Query(x.Sample(s))
		if !equalApprox(got, want, 1e-12) {
			t.Fatalf("loaded hierarchy diverges on sample %d", s)
		}
	}
	// Cost model must survive the round trip too.
	if loaded.Cost() != res.Hierarchy.Cost() {
		t.Fatalf("cost changed: %+v vs %+v", loaded.Cost(), res.Hierarchy.Cost())
	}
}

func TestHierarchySaveLoadLSH(t *testing.T) {
	m, x, _ := smallModelAndData(22)
	res := Tabularize(m, x, Config{Kernel: KernelConfig{K: 16, C: 2, Kind: EncoderLSH}, Seed: 7})
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, res.Hierarchy, nn.CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Hierarchy.Query(x.Sample(0))
	got := loaded.Query(x.Sample(0))
	if !equalApprox(got, want, 1e-12) {
		t.Fatal("LSH hierarchy diverges after round trip")
	}
}

func TestLoadTableCheckpointGarbage(t *testing.T) {
	if _, _, err := LoadCheckpoint(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage input loaded")
	}
}
