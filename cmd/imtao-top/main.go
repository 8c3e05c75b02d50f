// Command imtao-top is a live terminal dashboard for a running imtao-sim
// (or anything else serving the imtao /metrics exposition): it polls the
// endpoint, keeps a short history of the headline series, and redraws a
// sparkline view in place — game convergence (Φ), iteration latency
// quantiles, GC pauses, heap, and the game engine's work counters.
//
// Usage:
//
//	imtao-sim -listen :8080 &          # something to watch
//	imtao-top -addr 127.0.0.1:8080     # live view, Ctrl-C to exit
//	imtao-top -addr 127.0.0.1:8080 -once   # one plain snapshot (CI smoke)
package main

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"imtao/internal/textplot"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "host:port (or full URL) of the /metrics endpoint to watch")
		interval = flag.Duration("interval", 2*time.Second, "poll period")
		once     = flag.Bool("once", false, "poll once, print a plain snapshot, and exit (no screen control)")
		width    = flag.Int("width", 48, "sparkline width in columns")
	)
	flag.Parse()

	url := metricsURL(*addr)
	d := newDashboard(url, *width)

	if *once {
		if err := d.poll(); err != nil {
			fmt.Fprintln(os.Stderr, "imtao-top:", err)
			os.Exit(1)
		}
		fmt.Print(d.render(false))
		return
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	t := time.NewTicker(*interval)
	defer t.Stop()
	fmt.Print("\x1b[2J") // clear once; afterwards redraw in place
	for {
		if err := d.poll(); err != nil {
			d.lastErr = err
		} else {
			d.lastErr = nil
		}
		fmt.Print("\x1b[H" + d.render(true))
		select {
		case <-stop:
			fmt.Println()
			return
		case <-t.C:
		}
	}
}

// metricsURL normalises -addr: "host:port" and bare URLs both end at
// /metrics over http.
func metricsURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if !strings.HasSuffix(addr, "/metrics") {
		addr = strings.TrimRight(addr, "/") + "/metrics"
	}
	return addr
}

// series is the ordered list of dashboard rows: the exposition key each row
// tracks, its display label, and the unit its value renders in.
var seriesRows = []struct {
	key, label, unit string
}{
	{"imtao_game_phi", "Φ potential", "raw"},
	{quantileKey("imtao_collab_iter_seconds", "0.5"), "iter p50", "seconds"},
	{quantileKey("imtao_collab_iter_seconds", "0.99"), "iter p99", "seconds"},
	{quantileKey("imtao_shard_iter_seconds", "0.99"), "shard iter p99", "seconds"},
	{"imtao_shard_skew", "shard skew", "raw"},
	{"imtao_shard_load_skew", "shard load skew", "raw"},
	{"imtao_shard_autotune_shards", "autotuned shards", "raw"},
	{quantileKey("imtao_phase1_center_seconds", "0.99"), "phase1 center p99", "seconds"},
	{quantileKey("imtao_roadnet_dijkstra_seconds", "0.99"), "dijkstra p99", "seconds"},
	{"imtao_runtime_gc_pause_p99_seconds", "GC pause p99", "seconds"},
	{"imtao_runtime_heap_live_bytes", "heap live", "bytes"},
	{"imtao_runtime_heap_goal_bytes", "heap goal", "bytes"},
	{"imtao_runtime_goroutines", "goroutines", "raw"},
}

// counterRows are cumulative totals rendered with a per-second rate instead
// of a sparkline.
var counterRows = []struct {
	key, label string
}{
	{"imtao_collab_iterations_total", "iterations"},
	{"imtao_collab_trials_total", "trials"},
	{"imtao_collab_candidates_pruned_total", "pruned"},
	{"imtao_roadnet_dijkstra_runs_total", "full searches"},
	{"imtao_roadnet_point_searches_total", "point searches"},
	{"imtao_roadnet_settled_nodes_total", "settled nodes"},
	{"imtao_shard_games_total", "shard games"},
	{"imtao_shard_exchange_iterations_total", "exchange iters"},
}

// dashboard accumulates per-series history across polls and renders the
// terminal view.
type dashboard struct {
	url    string
	width  int
	client *http.Client

	history  map[string][]float64
	snapshot map[string]float64
	prev     map[string]float64
	prevAt   time.Time
	lastAt   time.Time
	ticks    int
	lastErr  error
}

func newDashboard(url string, width int) *dashboard {
	if width <= 0 {
		width = 48
	}
	return &dashboard{
		url:     url,
		width:   width,
		client:  &http.Client{Timeout: 5 * time.Second},
		history: make(map[string][]float64),
	}
}

// poll scrapes the endpoint once and folds the sample into the history.
func (d *dashboard) poll() error {
	resp, err := d.client.Get(d.url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", d.url, resp.StatusCode)
	}
	m, err := parseMetrics(resp.Body)
	if err != nil {
		return err
	}
	d.prev, d.prevAt = d.snapshot, d.lastAt
	d.snapshot, d.lastAt = m, time.Now()
	d.ticks++
	for _, row := range seriesRows {
		if v, ok := m[row.key]; ok && !math.IsNaN(v) {
			h := append(d.history[row.key], v)
			if len(h) > d.width {
				h = h[len(h)-d.width:]
			}
			d.history[row.key] = h
		}
	}
	return nil
}

// render draws the dashboard; live mode appends erase-to-eol to every line
// so in-place redraws never leave stale characters behind.
func (d *dashboard) render(live bool) string {
	eol := "\n"
	if live {
		eol = "\x1b[K\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "imtao-top — %s   tick %d   %s%s", d.url, d.ticks,
		d.lastAt.Format("15:04:05"), eol)
	if d.lastErr != nil {
		fmt.Fprintf(&b, "  SCRAPE FAILED: %v%s", d.lastErr, eol)
	}
	b.WriteString(eol)
	for _, row := range seriesRows {
		v, ok := d.snapshot[row.key]
		if !ok || math.IsNaN(v) {
			fmt.Fprintf(&b, "  %-18s %10s%s", row.label, "—", eol)
			continue
		}
		fmt.Fprintf(&b, "  %-18s %10s  %s%s", row.label, formatUnit(v, row.unit),
			textplot.Spark(d.history[row.key], d.width), eol)
	}
	b.WriteString(eol)
	for _, row := range counterRows {
		v, ok := d.snapshot[row.key]
		if !ok {
			continue
		}
		rate := ""
		if d.prev != nil && !d.prevAt.IsZero() {
			if pv, ok := d.prev[row.key]; ok {
				dt := d.lastAt.Sub(d.prevAt).Seconds()
				if dt > 0 && v >= pv {
					rate = fmt.Sprintf("  (+%.0f/s)", (v-pv)/dt)
				}
			}
		}
		fmt.Fprintf(&b, "  %-18s %10.0f%s%s", row.label, v, rate, eol)
	}
	return b.String()
}

// formatUnit renders a value in its row's unit with a human scale.
func formatUnit(v float64, unit string) string {
	switch unit {
	case "seconds":
		switch {
		case v < 1e-3:
			return fmt.Sprintf("%.1fµs", v*1e6)
		case v < 1:
			return fmt.Sprintf("%.2fms", v*1e3)
		default:
			return fmt.Sprintf("%.2fs", v)
		}
	case "bytes":
		switch {
		case v >= 1<<30:
			return fmt.Sprintf("%.2fGiB", v/(1<<30))
		case v >= 1<<20:
			return fmt.Sprintf("%.1fMiB", v/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%.1fKiB", v/(1<<10))
		default:
			return fmt.Sprintf("%.0fB", v)
		}
	default:
		if v == math.Trunc(v) && math.Abs(v) < 1e9 {
			return fmt.Sprintf("%.0f", v)
		}
		return fmt.Sprintf("%.3f", v)
	}
}
