package pq

import (
	"math"
	"math/rand"
	"testing"

	"dart/internal/mat"
)

func clusteredData(rng *rand.Rand, n, d int, centers int) *mat.Matrix {
	base := mat.New(centers, d).Randn(rng, 5)
	x := mat.New(n, d)
	for i := 0; i < n; i++ {
		c := base.Row(rng.Intn(centers))
		row := x.Row(i)
		for j, v := range c {
			row[j] = v + rng.NormFloat64()*0.1
		}
	}
	return x
}

func TestKMeansRecoversClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := clusteredData(rng, 200, 4, 4)
	centers, assign := KMeans(x.Data, 200, 4, 4, 25, rng)
	if len(centers) != 16 || len(assign) != 200 {
		t.Fatalf("KMeans output sizes %d, %d", len(centers), len(assign))
	}
	// Every point should be close to its assigned center for well-separated
	// clusters with sigma=0.1.
	for i := 0; i < 200; i++ {
		d := sqDist(x.Row(i), centers[assign[i]*4:(assign[i]+1)*4])
		if d > 1.0 {
			t.Fatalf("point %d far from its center: %v", i, d)
		}
	}
}

func TestKMeansAssignmentIsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := clusteredData(rng, 100, 3, 5)
	centers, assign := KMeans(x.Data, 100, 3, 5, 20, rng)
	for i := 0; i < 100; i++ {
		got := sqDist(x.Row(i), centers[assign[i]*3:(assign[i]+1)*3])
		for c := 0; c < 5; c++ {
			if d := sqDist(x.Row(i), centers[c*3:(c+1)*3]); d < got-1e-12 {
				t.Fatalf("point %d assigned to %d but %d is closer", i, assign[i], c)
			}
		}
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := mat.New(50, 2).Randn(rng, 1)
	centers, _ := KMeans(x.Data, 50, 2, 1, 10, rng)
	// Single center must be the mean.
	var m0, m1 float64
	for i := 0; i < 50; i++ {
		m0 += x.At(i, 0)
		m1 += x.At(i, 1)
	}
	m0 /= 50
	m1 /= 50
	if math.Abs(centers[0]-m0) > 1e-9 || math.Abs(centers[1]-m1) > 1e-9 {
		t.Fatalf("1-means center %v, want (%v,%v)", centers, m0, m1)
	}
}

func TestKMeansEncoderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := clusteredData(rng, 300, 8, 6)
	enc := NewKMeansEncoder(8, 2, 8, rng)
	enc.Fit(x)
	if enc.K() != 8 || enc.C() != 2 || enc.SubDim() != 4 {
		t.Fatalf("encoder dims K=%d C=%d V=%d", enc.K(), enc.C(), enc.SubDim())
	}
	// Quantization error should be small on clustered data.
	if mse := quantizationMSE(enc, x); mse > 0.5 {
		t.Fatalf("k-means quantization MSE %v too high", mse)
	}
}

func TestEncoderIndexInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := mat.New(100, 8).Randn(rng, 1)
	for _, enc := range []Encoder{
		NewKMeansEncoder(8, 4, 4, rng),
		NewLSHEncoder(8, 4, 4, rng),
	} {
		enc.Fit(x)
		idx := make([]int, enc.C())
		for i := 0; i < x.Rows; i++ {
			enc.EncodeRow(x.Row(i), idx)
			for _, k := range idx {
				if k < 0 || k >= enc.K() {
					t.Fatalf("index %d out of [0,%d)", k, enc.K())
				}
			}
		}
	}
}

func TestLSHEncoderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := mat.New(50, 4).Randn(rng, 1)
	enc := NewLSHEncoder(4, 2, 8, rng)
	enc.Fit(x)
	a := make([]int, 2)
	b := make([]int, 2)
	enc.EncodeRow(x.Row(3), a)
	enc.EncodeRow(x.Row(3), b)
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatal("LSH encoding not deterministic")
	}
}

func TestLSHEncoderReasonableError(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := clusteredData(rng, 500, 8, 4)
	exact := NewKMeansEncoder(8, 2, 16, rng)
	exact.Fit(x)
	lsh := NewLSHEncoder(8, 2, 16, rng)
	lsh.Fit(x)
	exactMSE := quantizationMSE(exact, x)
	lshMSE := quantizationMSE(lsh, x)
	if lshMSE < exactMSE*0.5 {
		t.Fatalf("LSH (%v) should not beat exact k-means (%v) by 2x", lshMSE, exactMSE)
	}
	// But it must still be a meaningful quantizer on clustered data.
	var varTotal float64
	for _, v := range x.Data {
		varTotal += v * v
	}
	varTotal /= float64(len(x.Data))
	if lshMSE > varTotal {
		t.Fatalf("LSH MSE %v worse than predicting zero (var %v)", lshMSE, varTotal)
	}
}

func TestNewLSHEncoderRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for K=6")
		}
	}()
	NewLSHEncoder(8, 2, 6, rand.New(rand.NewSource(1)))
}

func TestSplitCheckPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 7/2 subspaces")
		}
	}()
	NewKMeansEncoder(7, 2, 4, rand.New(rand.NewSource(1)))
}

func TestKMeansEncoderFewerRowsThanK(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := mat.New(3, 4).Randn(rng, 1)
	enc := NewKMeansEncoder(4, 2, 8, rng)
	enc.Fit(x) // must not panic
	idx := make([]int, 2)
	enc.EncodeRow(x.Row(0), idx)
}

// quantizationMSE measures the mean squared reconstruction error of the
// encoder over the rows of x.
func quantizationMSE(enc Encoder, x *mat.Matrix) float64 {
	if x.Rows == 0 {
		return 0
	}
	var total float64
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		q := quantize(enc, row)
		for j, v := range row {
			d := v - q[j]
			total += d * d
		}
	}
	return total / float64(x.Rows*x.Cols)
}

// quantize returns the quantized reconstruction of a (its nearest prototype
// per subspace, concatenated).
func quantize(enc Encoder, a []float64) []float64 {
	c, v := enc.C(), enc.SubDim()
	out := make([]float64, c*v)
	idx := make([]int, c)
	enc.EncodeRow(a, idx)
	for ci, ki := range idx {
		copy(out[ci*v:(ci+1)*v], enc.Center(ci, ki))
	}
	return out
}
