package tabular

import (
	"bytes"
	"testing"

	"dart/internal/nn"
)

// FuzzTableCheckpoint throws arbitrary gob bodies at the DARTTAB1 decoder.
// Each body is framed with nn.WriteFrame, so its CRC is valid and every
// mutation reaches gob and unmarshalLayers: LoadCheckpoint must return a
// hierarchy or an error, and never panic. The seeds are the float, int8 and
// int16 bodies of the quantHierarchy fixture; the committed corpus under
// testdata/fuzz holds the same bodies as once written and replays as an
// ordinary test, and `make fuzz` digs for more.
func FuzzTableCheckpoint(f *testing.F) {
	for _, bits := range []int{0, 8, 16} {
		h, _ := quantHierarchy(f, bits)
		var framed bytes.Buffer
		if err := SaveCheckpoint(&framed, h, nn.CheckpointMeta{}); err != nil {
			f.Fatal(err)
		}
		_, body, err := nn.ReadFrame(&framed, nn.TableMagic)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var framed bytes.Buffer
		if err := nn.WriteFrame(&framed, nn.TableMagic, nn.CheckpointMeta{Model: hierarchyModelName}, body); err != nil {
			t.Fatal(err)
		}
		h, _, err := LoadCheckpoint(&framed)
		if (h == nil) == (err == nil) {
			t.Fatalf("LoadCheckpoint returned hierarchy %v with error %v", h != nil, err)
		}
	})
}
