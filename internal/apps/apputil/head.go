package apputil

import "math"

// Head is the procedural CT-head stand-in rendered by Volrend and
// Shear-Warp: concentric density shells inside a bounding sphere (squashed
// 2:1 along z), empty outside, over an n x n x n/2 ray-major volume.
//
// The model is exact rather than sampled. For a column (x, y) the squared
// distance d2 = dx*dx + dy*dy + dz*dz is computed exactly in float64 (every
// term is a small multiple of 1/4) and grows with |dz|, so a column's
// opaque voxels form one contiguous z range (Span), and two columns with
// the same dx*dx + dy*dy (the same Radius) hold identical voxel sequences.
type Head struct {
	n, nz int
	c, cz float64 // centre: x and y, z
	rr    float64 // squared bounding radius
}

// NewHead returns the head for an n x n image, n/2 slices deep.
func NewHead(n int) Head {
	nz := n / 2
	r := 0.45 * float64(n)
	return Head{n: n, nz: nz, c: float64(n) / 2, cz: float64(nz) / 2, rr: r * r}
}

// d2 is the squared (z-stretched) distance of voxel (x, y, z) from the centre.
func (h Head) d2(x, y, z int) float64 {
	dx, dy, dz := float64(x)-h.c, float64(y)-h.c, (float64(z)-h.cz)*2
	return dx*dx + dy*dy + dz*dz
}

// Voxel returns the density of voxel (x, y, z).
func (h Head) Voxel(x, y, z int) uint8 { return h.density(h.d2(x, y, z)) }

// density maps a squared distance to a voxel value: 0 outside the bounding
// sphere, else alternating dense / sparse shells.
func (h Head) density(d2 float64) uint8 {
	if d2 > h.rr {
		return 0
	}
	switch int(d2/h.rr*8) % 3 {
	case 0:
		return 200
	case 1:
		return 40
	default:
		return 90
	}
}

// Span returns the half-open z range [z0, z1) of column (x, y)'s opaque
// voxels; z0 == z1 for an empty column. Every voxel inside the range is
// non-zero and every voxel outside it is zero.
func (h Head) Span(x, y int) (z0, z1 int) {
	// The range, if any, holds the slice nearest the centre.
	zm := h.nz / 2
	if h.nz == 0 || h.d2(x, y, zm) > h.rr {
		return 0, 0
	}
	// Estimate |2z - nz| <= sqrt(rr - dx²-dy²), then settle both ends with
	// the exact test Voxel uses.
	dx, dy := float64(x)-h.c, float64(y)-h.c
	half := math.Sqrt(h.rr-(dx*dx+dy*dy)) / 2
	z0 = min(max(int(math.Ceil(h.cz-half)), 0), zm)
	z1 = max(min(int(math.Floor(h.cz+half))+1, h.nz), zm+1)
	return h.settle(x, y, z0, z1)
}

// settle moves the ends of a guess [z0, z1) that holds slice nz/2 of a
// non-empty column onto the column's exact span.
func (h Head) settle(x, y, z0, z1 int) (int, int) {
	for z0 > 0 && h.d2(x, y, z0-1) <= h.rr {
		z0--
	}
	for h.d2(x, y, z0) > h.rr {
		z0++
	}
	for z1 < h.nz && h.d2(x, y, z1) <= h.rr {
		z1++
	}
	for h.d2(x, y, z1-1) > h.rr {
		z1--
	}
	return z0, z1
}

// Fill writes the head into vol, a zeroed ray-major volume indexed
// (y*n + x)*nz + z, one span at a time.
func (h Head) Fill(vol []uint8) {
	for y := 0; y < h.n; y++ {
		for x := 0; x < h.n; x++ {
			base := (y*h.n + x) * h.nz
			z0, z1 := h.Span(x, y)
			for z := z0; z < z1; z++ {
				vol[base+z] = h.Voxel(x, y, z)
			}
		}
	}
}

// Scanline returns the number of non-transparent voxels of scanline y and
// the number of runs they form in ray-major order. A run carries over from
// one column to the next only when the first ends at z = nz-1 and the
// second starts at z = 0.
func (h Head) Scanline(y int) (nvox, runs int) {
	inRun := false
	for x := 0; x < h.n; x++ {
		z0, z1 := h.Span(x, y)
		if z0 == z1 {
			inRun = false
			continue
		}
		nvox += z1 - z0
		if z0 > 0 || !inRun {
			runs++
		}
		inRun = z1 == h.nz
	}
	return nvox, runs
}

// Radius returns column (x, y)'s radius class, floor(dx*dx + dy*dy).
// Columns of one class hold identical voxel sequences, and every column
// with a non-empty span has a class below Radii.
func (h Head) Radius(x, y int) int {
	ix, iy := 2*x-h.n, 2*y-h.n // 2*dx, 2*dy
	return (ix*ix + iy*iy) / 4
}

// Radii bounds the radius classes of the non-empty columns.
func (h Head) Radii() int { return int(h.rr) + 1 }

// Composite composites column (x, y) front to back down its span (the
// run-length encoding skips transparent voxels), stopping once the ray is
// nearly opaque: the shear-warp renderer's per-pixel compositing.
func (h Head) Composite(x, y int) float64 {
	var acc, alpha float64
	dx, dy := float64(x)-h.c, float64(y)-h.c
	r2 := dx*dx + dy*dy
	z0, z1 := h.Span(x, y)
	for z := z0; z < z1; z++ {
		dz := (float64(z) - h.cz) * 2
		d := float64(h.density(r2+dz*dz)) / 255
		a := d * 0.05
		acc += (1 - alpha) * a * d * 255
		alpha += (1 - alpha) * a
		if alpha > 0.95 {
			break
		}
	}
	return acc
}
