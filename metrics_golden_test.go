package roadskyline

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/: metrics.golden and this package's cells of pins.json")

// goldenPoolMetrics is a fixed snapshot with every /metrics family
// populated: both optional blocks (load views, runtime sample), two
// duration series, two workers, and float values that exercise %g
// (fractions, exponents, zero).
func goldenPoolMetrics() PoolMetrics {
	wait := WaitHistogram{
		Bounds:  QueueWaitBounds(),
		Buckets: []uint64{3, 5, 8, 8, 9, 9},
		Count:   10,
		Sum:     12345678 * time.Microsecond,
	}
	dur := func(buckets []uint64, count uint64, sum time.Duration) WaitHistogram {
		return WaitHistogram{
			Bounds:  []time.Duration{500 * time.Microsecond, 2500 * time.Microsecond, time.Second},
			Buckets: buckets, Count: count, Sum: sum,
		}
	}
	view := func(sec int, scale uint64) LoadStats {
		return LoadStats{
			WindowSeconds: sec, Total: 11 * scale, TPS: float64(11*scale) / float64(sec),
			Served: 6 * scale, Errors: 2 * scale, Cancelled: scale, Saturated: scale, Closed: scale,
			LatencyCount: 8 * scale, MeanLatency: 3 * time.Millisecond,
			P50: 1500 * time.Microsecond, P90: 4 * time.Millisecond,
			P99: 25 * time.Millisecond, P999: 1234567 * time.Nanosecond,
			DistCacheHits: 3 * scale, DistCacheMisses: scale, DistCacheHitRate: 0.75,
			WavefrontLeads: 2 * scale, WavefrontShares: scale, WavefrontShareRate: 1.0 / 3,
		}
	}
	return PoolMetrics{
		Workers:        2,
		StorageBackend: "mmap",
		InFlight:       1,
		Waiting:        3,
		Submitted:      42,
		Served:         30,
		Saturated:      5,
		Cancelled:      4,
		Closed:         2,
		QueueWait:      wait,
		WorkerStats: []WorkerStats{
			{Worker: 0, Queries: 17, BufferGets: 1000, BufferMisses: 120},
			{Worker: 1, Queries: 13, BufferGets: 800, BufferMisses: 0},
		},
		DistCache:  DistCacheStats{Hits: 70, Misses: 30, Stores: 28, Evictions: 4, Entries: 24},
		Wavefront:  WavefrontStats{Leads: 9, Shares: 6, Promotions: 1, Bypasses: 2, Waiting: 1},
		FlightSeen: 41,
		FlightOutcomes: map[string]uint64{
			"served": 25, "error": 3, "abandoned": 2, "cancelled": 4, "saturated": 5, "closed": 2,
		},
		Durations: []QueryDurations{
			{Alg: "CE", Outcome: "served", Hist: dur([]uint64{1, 4, 9}, 10, 98765*time.Microsecond)},
			{Alg: "LBC", Outcome: "error", Hist: dur([]uint64{0, 0, 0}, 1, 15*time.Second)},
		},
		Load: []LoadStats{view(1, 1), view(10, 7), view(60, 40)},
		Runtime: &RuntimeSample{
			HeapBytes: 12345678, TotalBytes: 98765432, AllocBytes: 5000000000,
			Goroutines: 17, GCCycles: 321,
			GCPauseP50: 40 * time.Microsecond, GCPauseP99: 1200 * time.Microsecond, GCPauseMax: 7 * time.Millisecond,
			SchedLatP50: 0, SchedLatP99: 35 * time.Microsecond, SchedLatMax: 2 * time.Millisecond,
		},
	}
}

// TestMetricsGolden pins the Prometheus exposition byte for byte against
// testdata/metrics.golden (rendered by the hand-written per-family code
// this renderer replaced). The build_info label values depend on the
// toolchain, so they are replaced by placeholders before comparing.
func TestMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	writePoolMetrics(&buf, goldenPoolMetrics())
	version, goVersion := BuildInfo()
	got := strings.Replace(buf.String(),
		fmt.Sprintf("version=%q,go_version=%q", version, goVersion),
		`version="VERSION",go_version="GOVERSION"`, 1)

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("/metrics differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("/metrics differs from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
