//go:build amd64 && !purego

package mat

// cpuHasAVX2FMA reports whether the CPU and OS support the AVX2+FMA
// micro-kernel. Implemented in kernel_amd64.s.
func cpuHasAVX2FMA() bool

// dotTile4x2AVX computes the eight dot products of four row vectors against
// two column vectors over the first n4 elements (n4 > 0, n4 % 4 == 0) into
// out. Implemented in kernel_amd64.s.
//
//go:noescape
func dotTile4x2AVX(a0, a1, a2, a3, b0, b1 *float64, n4 int, out *[8]float64)

// useVectorKernel gates the assembly micro-kernel. It is a package-level
// constant per process: results are deterministic on a given machine, and
// identical across machines that share the same answer here.
var useVectorKernel = cpuHasAVX2FMA()
