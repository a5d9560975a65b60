package trace

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"
)

// zooDigests pins one FNV-64a digest per Workloads() entry, generated at
// seed zooDigestSeed and zooDigestN records.
var zooDigests = map[string]uint64{
	"410.bwaves":     0xdd8753cf3360dea6,
	"433.milc":       0x34f23ee599db02fd,
	"437.leslie3d":   0x69ca54dcb362fcfb,
	"462.libquantum": 0x7d29f1259b7311a0,
	"602.gcc":        0x4a188c0c785b0973,
	"605.mcf":        0xebf3f9d731304fea,
	"619.lbm":        0xa3f95ae62e31eccf,
	"621.wrf":        0xb4863870f4ae3421,
	"chase":          0x9b3a6e2b3cc6c2e7,
	"graph":          0xcabdcd9f9cbc21f2,
	"zipf":           0xc67dbca76a3f5d7a,
	"phase":          0xc546c92e62deb1dd,
}

const (
	zooDigestSeed = 3
	zooDigestN    = 20_000
)

// recordsDigest is the FNV-64a hash of every record's InstrID, PC, Addr and
// IsLoad, little-endian, in trace order.
func recordsDigest(recs []Record) uint64 {
	h := fnv.New64a()
	var b [25]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(b[0:], r.InstrID)
		binary.LittleEndian.PutUint64(b[8:], r.PC)
		binary.LittleEndian.PutUint64(b[16:], r.Addr)
		b[24] = 0
		if r.IsLoad {
			b[24] = 1
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestZooDigest pins the exact records of every workload-zoo entry, so a
// rewrite of a generator that reorders or drops an RNG draw fails here
// (TestZooDeterministicBytes only compares two runs of one build). The Zipf
// sampler goes through math.Exp/Log, whose assembly may round differently
// off amd64, so other architectures skip.
func TestZooDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	ws := Workloads()
	if len(ws) != len(zooDigests) {
		t.Errorf("%d workloads, %d pinned digests", len(ws), len(zooDigests))
	}
	for _, w := range ws {
		recs := w.Generate(zooDigestSeed, zooDigestN)
		if len(recs) != zooDigestN {
			t.Fatalf("%s: %d records, want %d", w.Name, len(recs), zooDigestN)
		}
		if got, want := recordsDigest(recs), zooDigests[w.Name]; got != want {
			t.Errorf("%s: digest %#x, want %#x", w.Name, got, want)
		}
	}
}
