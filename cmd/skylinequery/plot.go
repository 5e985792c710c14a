package main

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"roadskyline"
)

// plotSize is the width and height of a query plot in pixels.
const plotSize = 800

// writeQueryPlot renders an SVG picture of a skyline query: the road network
// in grey, every object as a small grey dot, the skyline objects in red and
// the query points in blue, labelled q0, q1, ... in query order. res may be
// nil, which draws no skyline.
func writeQueryPlot(w io.Writer, net *roadskyline.Network, objects []roadskyline.Object, queryPoints []roadskyline.Location, res *roadskyline.Result) error {
	f := newFrame(net, plotSize)
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		plotSize, plotSize, plotSize, plotSize)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="#ffffff"/>`+"\n", plotSize, plotSize)

	// The roads, as one path element.
	sb.WriteString(`<path fill="none" stroke="#9aa3ab" stroke-width="1" d="`)
	for e := range int32(net.NumEdges()) {
		u, v, _ := net.EdgeEnds(e)
		x1, y1 := f.at(net.NodePoint(u))
		x2, y2 := f.at(net.NodePoint(v))
		fmt.Fprintf(&sb, "M%s %sL%s %s", trimFloat(x1), trimFloat(y1), trimFloat(x2), trimFloat(y2))
	}
	sb.WriteString(`"/>` + "\n")

	marker := func(loc roadskyline.Location, color string, radius float64, label string) {
		x, y := f.at(net.PointOf(loc))
		fmt.Fprintf(&sb, `<circle cx="%s" cy="%s" r="%s" fill="%s"/>`+"\n",
			trimFloat(x), trimFloat(y), trimFloat(radius), color)
		if label != "" {
			fmt.Fprintf(&sb, `<text x="%s" y="%s" font-size="12" font-family="sans-serif" fill="#1c1c1c">%s</text>`+"\n",
				trimFloat(x+radius+2), trimFloat(y-radius-2), label)
		}
	}
	inSkyline := make(map[int32]bool)
	if res != nil {
		for _, p := range res.Points {
			inSkyline[p.Object.ID] = true
		}
	}
	for _, o := range objects {
		if !inSkyline[o.ID] {
			marker(o.Loc, "#c2c8cd", 2.5, "")
		}
	}
	if res != nil {
		for _, p := range res.Points {
			marker(p.Object.Loc, "#d5473c", 4.5, "")
		}
	}
	for i, q := range queryPoints {
		marker(q, "#2868c8", 6, "q"+strconv.Itoa(i))
	}
	sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// frame maps network coordinates to pixels: the network's bounding box is
// scaled uniformly into the canvas inside a 4% margin, with y flipped so
// that north is up.
type frame struct {
	minX, minY   float64
	size, margin float64
	scale        float64
}

func newFrame(net *roadskyline.Network, size int) frame {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for v := range int32(net.NumNodes()) {
		p := net.NodePoint(v)
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	m := math.Max(maxX-minX, maxY-minY)
	if m == 0 {
		m = 1
	}
	f := frame{minX: minX, minY: minY, size: float64(size), margin: 0.04 * float64(size)}
	f.scale = (f.size - 2*f.margin) / m
	return f
}

func (f frame) at(p roadskyline.Point) (x, y float64) {
	return f.margin + (p.X-f.minX)*f.scale, f.size - f.margin - (p.Y-f.minY)*f.scale
}

// trimFloat formats a pixel coordinate with at most two decimals and no
// trailing zeros.
func trimFloat(f float64) string {
	s := strings.TrimRight(fmt.Sprintf("%.2f", f), "0")
	return strings.TrimRight(s, ".")
}
