//go:build !amd64 || purego

package mat

// useVectorKernel is false on architectures without the assembly
// micro-kernel; the engine falls back to the portable scalar tile.
const useVectorKernel = false

// dotTile4x2AVX is never called when useVectorKernel is false.
func dotTile4x2AVX(a0, a1, a2, a3, b0, b1 *float64, n4 int, out *[8]float64) {
	panic("mat: vector kernel unavailable on this architecture")
}
