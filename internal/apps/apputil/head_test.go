package apputil

import (
	"math"
	"testing"
)

// The dense reference model: the head sampled into an n x n x n/2 byte
// volume, then scanned and composited voxel by voxel. Head must reproduce
// it exactly.

func fillHead(vol []uint8, n, nz int) {
	cx, cy, cz := float64(n)/2, float64(n)/2, float64(nz)/2
	r := 0.45 * float64(n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			for z := 0; z < nz; z++ {
				dx, dy, dz := float64(x)-cx, float64(y)-cy, (float64(z)-cz)*2
				d2 := dx*dx + dy*dy + dz*dz
				if d2 > r*r {
					continue
				}
				switch int(d2/(r*r)*8) % 3 {
				case 0:
					vol[(y*n+x)*nz+z] = 200
				case 1:
					vol[(y*n+x)*nz+z] = 40
				default:
					vol[(y*n+x)*nz+z] = 90
				}
			}
		}
	}
}

func rleScan(vol []uint8, n, nz, y int) (nvox, runs int) {
	inRun := false
	for x := 0; x < n; x++ {
		for z := 0; z < nz; z++ {
			if vol[(y*n+x)*nz+z] != 0 {
				nvox++
				if !inRun {
					runs++
					inRun = true
				}
			} else {
				inRun = false
			}
		}
	}
	return nvox, runs
}

func compositeRow(vol []uint8, n, nz, y int, out []float64) {
	for x := 0; x < n; x++ {
		var acc, alpha float64
		base := (y*n + x) * nz
		for z := 0; z < nz; z++ {
			d := float64(vol[base+z]) / 255
			if d == 0 {
				continue // RLE skips transparent voxels
			}
			a := d * 0.05
			acc += (1 - alpha) * a * d * 255
			alpha += (1 - alpha) * a
			if alpha > 0.95 {
				break
			}
		}
		out[y*n+x] = acc
	}
}

// diffHeadVsDense checks every voxel, span, scanline (nvox, runs) and the
// bits of every composited pixel of NewHead(n) against the dense model. The
// pixels are read through a per-radius table filled from each class's
// first column, the way the shear-warp renderer builds its image.
func diffHeadVsDense(t *testing.T, n int) {
	t.Helper()
	h := NewHead(n)
	nz := n / 2
	dense := make([]uint8, n*n*nz)
	fillHead(dense, n, nz)
	vol := make([]uint8, n*n*nz)
	h.Fill(vol)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			base := (y*n + x) * nz
			lo, hi := 0, 0 // the dense column's non-zero range
			for z := 0; z < nz; z++ {
				i := base + z
				if vol[i] != dense[i] || h.Voxel(x, y, z) != dense[i] {
					t.Fatalf("n=%d voxel (%d,%d,%d): Fill %d, Voxel %d, dense %d", n, x, y, z, vol[i], h.Voxel(x, y, z), dense[i])
				}
				if dense[i] != 0 {
					if hi == 0 {
						lo = z
					}
					hi = z + 1
				}
			}
			for z := lo; z < hi; z++ {
				if dense[base+z] == 0 {
					t.Fatalf("n=%d column (%d,%d): dense voxels are not one contiguous range", n, x, y)
				}
			}
			if z0, z1 := h.Span(x, y); z1-z0 != hi-lo || (hi > lo && z0 != lo) {
				t.Fatalf("n=%d column (%d,%d): Span [%d,%d), dense [%d,%d)", n, x, y, z0, z1, lo, hi)
			}
		}
	}

	table := make([]float64, h.Radii())
	filled := make([]bool, len(table))
	out := make([]float64, n*n)
	for y := 0; y < n; y++ {
		nvox, runs := h.Scanline(y)
		if dv, dr := rleScan(dense, n, nz, y); nvox != dv || runs != dr {
			t.Fatalf("n=%d scanline %d: (nvox, runs) = (%d, %d), dense (%d, %d)", n, y, nvox, runs, dv, dr)
		}
		compositeRow(dense, n, nz, y, out)
		for x := 0; x < n; x++ {
			got := 0.0
			if c := h.Radius(x, y); c < len(table) {
				if !filled[c] {
					table[c], filled[c] = h.Composite(x, y), true
				}
				got = table[c]
			} else if z0, z1 := h.Span(x, y); z0 != z1 {
				t.Fatalf("n=%d column (%d,%d): non-empty span with radius class %d >= Radii %d", n, x, y, c, len(table))
			}
			if math.Float64bits(got) != math.Float64bits(out[y*n+x]) {
				t.Fatalf("n=%d pixel (%d,%d) = %v, dense %v", n, x, y, got, out[y*n+x])
			}
		}
	}
}

// Span's square-root estimate hits both exact ends of every column at
// every n up to 1024, so its settle loops never run there. They are driven
// here from every guess that holds slice nz/2 and must reach Span (which
// TestHeadMatchesDense checks against the dense model) from all of them.
func TestHeadSettleFromAnyGuess(t *testing.T) {
	for _, n := range []int{3, 8, 21, 40} {
		h := NewHead(n)
		nz := n / 2
		zm := nz / 2
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				z0, z1 := h.Span(x, y)
				if z0 == z1 {
					continue
				}
				for g0 := 0; g0 <= zm; g0++ {
					for g1 := zm + 1; g1 <= nz; g1++ {
						if s0, s1 := h.settle(x, y, g0, g1); s0 != z0 || s1 != z1 {
							t.Fatalf("n=%d column (%d,%d): settle from [%d,%d) = [%d,%d), Span [%d,%d)", n, x, y, g0, g1, s0, s1, z0, z1)
						}
					}
				}
			}
		}
	}
}

func TestHeadMatchesDense(t *testing.T) {
	sizes := []int{100, 128, 256}
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		diffHeadVsDense(t, n)
	}
}

// FuzzHeadVsDense diffs Head against the dense reference model at a fuzzed
// image size in [1, 96].
func FuzzHeadVsDense(f *testing.F) {
	for _, n := range []uint8{0, 1, 32, 63, 95} {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, n uint8) {
		diffHeadVsDense(t, int(n)%96+1)
	})
}
