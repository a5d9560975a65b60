package nn

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

// fuzzModel is the fixed small transformer FuzzModelCheckpoint loads into.
func fuzzModel(seed int64) *Sequential {
	return NewTransformerPredictor(TransformerConfig{T: 2, DIn: 3, DModel: 4, DFF: 4, DOut: 2, Heads: 2, Layers: 1},
		rand.New(rand.NewSource(seed)))
}

// sameBits reports whether two models of one architecture hold bit-identical
// parameters.
func sameBits(a, b Layer) bool {
	bp := b.Params()
	for i, p := range a.Params() {
		for j, v := range p.W.Data {
			if math.Float64bits(v) != math.Float64bits(bp[i].W.Data[j]) {
				return false
			}
		}
	}
	return true
}

// FuzzModelCheckpoint throws arbitrary bytes at the DARTCKP1 decoder.
// LoadCheckpoint must never panic, and when it returns an error the model's
// parameter bits must be exactly as before. Each input is tried as given
// (header, length and CRC checks) and again with its CRC recomputed, so
// mutations of the payload reach gob and restoreState. The seeds are a
// valid checkpoint of another fuzzModel and a truncated copy; the committed
// corpus under testdata/fuzz holds the same two and replays as an ordinary
// test, and `make fuzz` digs for more.
func FuzzModelCheckpoint(f *testing.F) {
	var good bytes.Buffer
	if err := SaveCheckpoint(&good, fuzzModel(2), CheckpointMeta{Version: 3}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 20 {
			fixed := append([]byte(nil), data...)
			binary.BigEndian.PutUint32(fixed[16:20], crc32.ChecksumIEEE(fixed[20:]))
			inputs = append(inputs, fixed)
		}
		for _, in := range inputs {
			m, want := fuzzModel(1), fuzzModel(1)
			if _, err := LoadCheckpoint(bytes.NewReader(in), m); err != nil && !sameBits(m, want) {
				t.Fatalf("rejected checkpoint (%v) modified the model", err)
			}
		}
	})
}
