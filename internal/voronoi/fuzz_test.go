package voronoi

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"imtao/internal/geo"
)

// FuzzDiagramNearestSite decodes a layout of up to 32 sites and a query from
// the fuzzer's bytes and requires NearestSite to equal brute force exactly,
// ties going to the smaller index, and the cells to tile the bounds.
//
// The first byte picks the site count (low five bits) and whether every
// point snaps to a 125-unit lattice (bit 5), which forces exact ties; each
// point then takes four bytes, two per coordinate, spread over [-250, 1250]
// around the bounds [0, 1000]. The query comes first, so it is never
// missing; sites coinciding with an earlier site are dropped.
func FuzzDiagramNearestSite(f *testing.F) {
	f.Add([]byte{0x02, 0x55, 0x55, 0x99, 0x99, 0x20, 0x20, 0x20, 0x20, 0x80, 0x80, 0xe0, 0xe0, 0xe0, 0x20, 0x20, 0xe0})
	f.Add([]byte{0x23, 0x80, 0x00, 0x80, 0x00, 0x40, 0x00, 0x40, 0x00, 0xc0, 0x00, 0xc0, 0x00, 0x40, 0x00, 0xc0, 0x00, 0xc0, 0x00, 0x40, 0x00})
	f.Add([]byte{0x1f, 0xff, 0xff, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f, 0xed, 0xcb, 0xa9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1+4+4 {
			return
		}
		n, snap := 1+int(data[0]&0x1f), data[0]&0x20 != 0
		coord := func(b []byte) float64 {
			v := float64(binary.BigEndian.Uint16(b))/65535*1500 - 250
			if snap {
				v = math.Round(v/125) * 125
			}
			return v
		}
		point := func() geo.Point {
			p := geo.Pt(coord(data[0:2]), coord(data[2:4]))
			data = data[4:]
			return p
		}
		data = data[1:]
		q := point()
		var sites []geo.Point
		for len(sites) < n && len(data) >= 4 {
			if p := point(); !slices.ContainsFunc(sites, p.Eq) {
				sites = append(sites, p)
			}
		}
		bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
		d, err := NewDiagram(sites, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d.NearestSite(q), bruteNearest(sites, q); got != want {
			t.Fatalf("NearestSite(%v) = %d (d²=%v), brute %d (d²=%v)",
				q, got, sites[got].Dist2(q), want, sites[want].Dist2(q))
		}
		// Cells tile the bounds.
		if a := d.TotalArea(); math.Abs(a-bounds.Area()) > 1e-3*bounds.Area() {
			t.Fatalf("cells do not tile bounds: %v vs %v", a, bounds.Area())
		}
	})
}
