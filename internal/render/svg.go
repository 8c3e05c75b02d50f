// Package render draws CMCTA instances and solutions as standalone SVG
// documents: Voronoi cells of the service-area partition, center / worker /
// task glyphs, delivery routes, and inter-center workforce transfers.
// It exists for debugging, documentation and the visualize example; output
// is plain SVG 1.1 built with the standard library only.
package render

import (
	"fmt"
	"io"
	"strings"

	"imtao/internal/geo"
	"imtao/internal/model"
	"imtao/internal/voronoi"
)

// palette cycles route colors per center.
var palette = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
	"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

// Options tunes the rendering.
type Options struct {
	// WidthPx is the SVG pixel width; height follows the instance's aspect
	// ratio. Default 800.
	WidthPx float64
	// ShowCells draws the Voronoi partition.
	ShowCells bool
	// ShowRoutes draws delivery routes of the solution (ignored when no
	// solution is given).
	ShowRoutes bool
	// ShowTransfers draws dashed arrows for workforce transfers.
	ShowTransfers bool
}

// Instance renders the instance (and optional solution) as SVG to w.
func Instance(w io.Writer, in *model.Instance, sol *model.Solution, opt Options) error {
	if opt.WidthPx <= 0 {
		opt.WidthPx = 800
	}
	bw, bh := in.Bounds.Width(), in.Bounds.Height()
	if bw <= 0 || bh <= 0 {
		return fmt.Errorf("render: degenerate bounds %+v", in.Bounds)
	}
	scale := opt.WidthPx / bw
	heightPx := bh * scale
	// SVG y grows downward; flip.
	tx := func(p geo.Point) (float64, float64) {
		return (p.X - in.Bounds.Min.X) * scale, heightPx - (p.Y-in.Bounds.Min.Y)*scale
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		opt.WidthPx, heightPx, opt.WidthPx, heightPx)
	b.WriteString(`<rect width="100%" height="100%" fill="#fcfcfc"/>` + "\n")

	if opt.ShowCells {
		sites := make([]geo.Point, len(in.Centers))
		for i, c := range in.Centers {
			sites[i] = c.Loc
		}
		diagram, err := voronoi.NewDiagram(sites, in.Bounds)
		if err == nil {
			for ci, cell := range diagram.Cells() {
				if len(cell) < 3 {
					continue
				}
				var pts []string
				for _, p := range cell {
					x, y := tx(p)
					pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
				}
				fmt.Fprintf(&b, `<polygon points="%s" fill="%s" fill-opacity="0.06" stroke="#bbb" stroke-width="1"/>`+"\n",
					strings.Join(pts, " "), palette[ci%len(palette)])
			}
		}
	}

	// Routes first so glyphs draw on top.
	if sol != nil && opt.ShowRoutes {
		for ci := range sol.PerCenter {
			color := palette[ci%len(palette)]
			for _, r := range sol.PerCenter[ci].Routes {
				if len(r.Tasks) == 0 {
					continue
				}
				wk := in.Worker(r.Worker)
				c := in.Center(r.Center)
				var pts []string
				for _, p := range routePoints(in, wk, c, r.Tasks) {
					x, y := tx(p)
					pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
				}
				fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.4" stroke-opacity="0.75"/>`+"\n",
					strings.Join(pts, " "), color)
			}
		}
	}

	if sol != nil && opt.ShowTransfers {
		for _, t := range sol.Transfers {
			x1, y1 := tx(in.Center(t.Src).Loc)
			x2, y2 := tx(in.Center(t.Dst).Loc)
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#d62728" stroke-width="1.6" stroke-dasharray="6 4"/>`+"\n",
				x1, y1, x2, y2)
		}
	}

	for _, task := range in.Tasks {
		x, y := tx(task.Loc)
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.2" fill="#444" fill-opacity="0.65"/>`+"\n", x, y)
	}
	for _, wk := range in.Workers {
		x, y := tx(wk.Loc)
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="5" height="5" fill="#2ca02c" fill-opacity="0.8"/>`+"\n", x-2.5, y-2.5)
	}
	for ci, c := range in.Centers {
		x, y := tx(c.Loc)
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="6" fill="%s" stroke="#222" stroke-width="1.2"/>`+"\n",
			x, y, palette[ci%len(palette)])
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="10" fill="#222">c%d</text>`+"\n", x+8, y+4, ci)
	}

	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// routePoints returns the polyline of one route: worker → center → tasks.
func routePoints(in *model.Instance, w *model.Worker, c *model.Center, tasks []model.TaskID) []geo.Point {
	pts := []geo.Point{w.Loc, c.Loc}
	for _, tid := range tasks {
		pts = append(pts, in.Task(tid).Loc)
	}
	return pts
}
