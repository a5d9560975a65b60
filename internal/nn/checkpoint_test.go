package nn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func testModel(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential("ckpt-test",
		NewLinear("l1", 6, 8, rng),
		NewReLU(),
		NewLinear("l2", 8, 4, rng),
	)
}

func paramsEqual(a, b Layer) bool {
	ap, bp := a.Params(), b.Params()
	if len(ap) != len(bp) {
		return false
	}
	for i := range ap {
		if len(ap[i].W.Data) != len(bp[i].W.Data) {
			return false
		}
		for j, v := range ap[i].W.Data {
			if bp[i].W.Data[j] != v {
				return false
			}
		}
	}
	return true
}

func TestCheckpointRoundTrip(t *testing.T) {
	src := testModel(1)
	meta := CheckpointMeta{Version: 7, Examples: 1234, Steps: 56, Loss: 0.321}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src, meta); err != nil {
		t.Fatal(err)
	}

	dst := testModel(2)
	if paramsEqual(src, dst) {
		t.Fatal("test models should start different")
	}
	got, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 || got.Examples != 1234 || got.Steps != 56 || got.Loss != 0.321 {
		t.Fatalf("load meta %+v", got)
	}
	if got.Model != "ckpt-test" || got.Format != checkpointFormat {
		t.Fatalf("load identity %+v", got)
	}
	if !paramsEqual(src, dst) {
		t.Fatal("loaded parameters differ from saved ones")
	}
}

func TestCheckpointCorruption(t *testing.T) {
	src := testModel(1)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src, CheckpointMeta{Version: 1}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"empty", nil, "truncated checkpoint header"},
		{"truncated header", good[:10], "truncated checkpoint header"},
		{"truncated payload", good[:len(good)-5], "truncated checkpoint"},
		{"bad magic", append([]byte("GARBAGE!"), good[8:]...), "bad magic"},
		{"garbage", []byte(strings.Repeat("junk", 64)), "bad magic"},
		{"flipped payload byte", flipByte(good, len(good)-1), "CRC mismatch"},
		{"flipped meta byte", flipByte(good, 21), "CRC mismatch"},
		{"flipped crc", flipByte(good, 17), "CRC mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := testModel(3)
			after := testModel(3)
			_, err := LoadCheckpoint(bytes.NewReader(tc.data), after)
			if err == nil {
				t.Fatal("corrupt checkpoint accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			if !paramsEqual(before, after) {
				t.Fatal("model was modified by a rejected checkpoint")
			}
		})
	}
}

func TestCheckpointImplausibleSizes(t *testing.T) {
	src := testModel(1)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	// Declare a ~4 GiB meta section: must be rejected before allocation.
	data[8], data[9], data[10], data[11] = 0xFF, 0xFF, 0xFF, 0xFF
	_, err := LoadCheckpoint(bytes.NewReader(data), testModel(2))
	if err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("oversized section not rejected: %v", err)
	}
}

// TestCheckpointHugeDeclaredSizes: a header that declares two 1 GiB sections
// followed by 10 bytes must fail as truncated without allocating the declared
// size — the store's recovery scan reads every file in the directory.
func TestCheckpointHugeDeclaredSizes(t *testing.T) {
	data := make([]byte, 30)
	copy(data, checkpointMagic[:])
	binary.BigEndian.PutUint32(data[8:12], maxCheckpointSection)
	binary.BigEndian.PutUint32(data[12:16], maxCheckpointSection)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(data), checkpointMagic)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated checkpoint") {
		t.Fatalf("short payload not rejected as truncated: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading a 30-byte file allocated %.1f MiB", float64(grew)/(1<<20))
	}
}

func TestCheckpointArchitectureMismatch(t *testing.T) {
	src := testModel(1)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	other := NewSequential("other", NewLinear("lx", 3, 3, rng))
	if _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("checkpoint applied to a mismatched architecture")
	}
}

func TestCopyParams(t *testing.T) {
	src, dst := testModel(1), testModel(2)
	if err := CopyParams(dst, src); err != nil {
		t.Fatal(err)
	}
	if !paramsEqual(src, dst) {
		t.Fatal("CopyParams did not copy values")
	}
	rng := rand.New(rand.NewSource(9))
	other := NewSequential("other", NewLinear("lx", 3, 3, rng))
	if err := CopyParams(other, src); err == nil {
		t.Fatal("CopyParams accepted mismatched architectures")
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}
