// Command gpufi-benchguard is the CI bench-regression gate: it parses
// `go test -bench` output and compares every RTLFI_/SWFI_/Emu_ benchmark
// against the committed BENCH_*.json baselines, failing (exit 1) when any
// benchmark's ns/op regresses beyond the allowed factor.
//
// Usage:
//
//	go test -run '^$' -bench 'RTLFI_|SWFI_|Emu_' -benchtime 1x . | tee bench.out
//	gpufi-benchguard [-max-ratio 2.5] [-baselines BENCH_rtlfi.json,BENCH_swfi.json,BENCH_emu.json] bench.out
//
// With no file argument the bench output is read from stdin.
//
// The factor is deliberately loose (default 2.5x): CI runners are slower
// and noisier than the machine that recorded the baselines, and a
// single-iteration -benchtime 1x run jitters. The gate exists to catch
// order-of-magnitude engine regressions — an accidentally disabled
// fast-forward or pruning path multiplies wall-clock several
// times over and clears the threshold on any hardware.
//
// All regressions are reported in one run, not just the first. Measured
// benchmarks without a baseline (a freshly added mode) are skipped, but a
// guarded baseline entry missing from the measured set is an error — a
// renamed or deleted benchmark would otherwise silently stop being
// guarded. Pass -allow-missing when intentionally running a narrower
// bench filter than the baselines cover.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baselineFile is the subset of the gpufi-bench/v1 schema the guard
// needs: benchmark names and their recorded ns/op.
type baselineFile struct {
	Schema     string `json:"schema"`
	Benchmarks []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkRTLFI_MicroCampaign/Pipe/Pruned-4    3    9653715 ns/op    79.77 replay-speedup
//
// The trailing -N is GOMAXPROCS, not part of the benchmark's identity.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpufi-benchguard: ")

	maxRatio := flag.Float64("max-ratio", 2.5, "fail when measured ns/op exceeds baseline by more than this factor")
	baselines := flag.String("baselines", "BENCH_rtlfi.json,BENCH_swfi.json,BENCH_emu.json", "comma-separated baseline files (gpufi-bench/v1)")
	allowMissing := flag.Bool("allow-missing", false, "tolerate guarded baseline entries absent from the measured set")
	flag.Parse()

	base, err := loadBaselines(strings.Split(*baselines, ","))
	if err != nil {
		log.Fatal(err)
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBench(in)
	if err != nil {
		log.Fatal(err)
	}
	if len(measured) == 0 {
		log.Fatal("no benchmark result lines found in input")
	}

	rep := gate(measured, base, *maxRatio)
	for _, line := range rep.failures {
		log.Print(line)
	}
	if len(rep.missing) > 0 && !*allowMissing {
		log.Printf("ERROR: %d guarded baseline entries were not measured (renamed/deleted benchmark, or the bench filter is too narrow — pass -allow-missing if intentional):", len(rep.missing))
		for _, name := range rep.missing {
			log.Printf("  missing from measured set: %s", name)
		}
	}
	switch {
	case rep.checked == 0:
		log.Fatal("no guarded benchmarks matched a baseline; check -baselines and the bench filter")
	case len(rep.failures) > 0 && len(rep.missing) > 0 && !*allowMissing:
		log.Fatalf("%d of %d guarded benchmarks regressed beyond %.2fx and %d baseline entries were not measured",
			len(rep.failures), rep.checked, *maxRatio, len(rep.missing))
	case len(rep.failures) > 0:
		log.Fatalf("%d of %d guarded benchmarks regressed beyond %.2fx", len(rep.failures), rep.checked, *maxRatio)
	case len(rep.missing) > 0 && !*allowMissing:
		log.Fatalf("%d guarded baseline entries were not measured", len(rep.missing))
	}
	fmt.Printf("gpufi-benchguard: %d guarded benchmarks within %.2fx of baseline\n", rep.checked, *maxRatio)
}

// report is the outcome of one gate evaluation.
type report struct {
	checked  int      // guarded benchmarks compared against a baseline
	failures []string // one formatted line per regression, name-sorted
	missing  []string // guarded baseline names absent from the measured set
}

// gate compares every guarded measured benchmark against the baselines
// and collects ALL regressions plus every guarded baseline entry that was
// never measured. It never fails fast: CI gets the complete picture in
// one run.
func gate(measured, base map[string]float64, maxRatio float64) report {
	var rep report
	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !guarded(name) {
			continue
		}
		baseNs, ok := base[name]
		if !ok {
			continue // not baselined yet (e.g. a freshly added mode)
		}
		rep.checked++
		ratio := measured[name] / baseNs
		if ratio > maxRatio {
			rep.failures = append(rep.failures, fmt.Sprintf("FAIL %s: %.0f ns/op vs baseline %.0f (%.2fx > %.2fx allowed)",
				name, measured[name], baseNs, ratio, maxRatio))
		}
	}
	for name := range base {
		if !guarded(name) {
			continue
		}
		if _, ok := measured[name]; !ok {
			rep.missing = append(rep.missing, name)
		}
	}
	sort.Strings(rep.missing)
	return rep
}

// guarded reports whether the gate applies to a benchmark: the RTL and
// software fault-injection engine families, plus the interpreter
// microbenchmarks (a Tier-1 fast-path regression would otherwise hide
// inside campaign noise).
func guarded(name string) bool {
	return strings.HasPrefix(name, "BenchmarkRTLFI_") ||
		strings.HasPrefix(name, "BenchmarkSWFI_") ||
		strings.HasPrefix(name, "BenchmarkEmu_")
}

func loadBaselines(paths []string) (map[string]float64, error) {
	base := make(map[string]float64)
	for _, p := range paths {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var bf baselineFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !strings.HasPrefix(bf.Schema, "gpufi-bench/") {
			return nil, fmt.Errorf("%s: unexpected schema %q", p, bf.Schema)
		}
		for _, b := range bf.Benchmarks {
			if b.NsPerOp > 0 {
				base[b.Name] = b.NsPerOp
			}
		}
	}
	return base, nil
}

func parseBench(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		// go test repeats a benchmark under -count; keep the fastest run,
		// the least noisy estimate of the achievable cost.
		if old, ok := out[m[1]]; !ok || ns < old {
			out[m[1]] = ns
		}
	}
	return out, sc.Err()
}
