// Command specbench is the repo's one benchmark: it drives the system
// in-process through its public façades, prints every metric by name
// with its unit, checks the outputs, and exits non-zero if they are
// wrong. See README.md in this directory.
//
//	specbench                                  all workloads, end-to-end metrics
//	specbench -trace 1                         all workloads, per-layer metrics
//	specbench -workload mesh_setup -seed 7     one workload; the last line is one JSON object
//	specbench -out run.json                    also write a result file
//	specbench -compare old.json new.json       judge two result files against BENCHMARK.json
//	specbench -smoke                           all workloads at NEX 4, both modes (seconds)
//	specbench -record-golden                   rewrite internal/bench/testdata (this commit = reference)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"

	"specglobe/internal/bench"
)

func main() {
	var (
		workload     = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Uint64("seed", bench.GoldenSeed, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 30, "time box of one workload's measurement")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		out          = flag.String("out", "", "write a result file (input of -compare)")
		traceOut     = flag.String("trace-out", "", "with -trace 1: write the spans as Chrome-trace JSON")
		compare      = flag.Bool("compare", false, "compare two result files: specbench -compare old.json new.json")
		specPath     = flag.String("spec", "BENCHMARK.json", "the benchmark contract (bounds for -compare)")
		smoke        = flag.Bool("smoke", false, "run every workload at smoke sizes, untraced and traced")
		recordGolden = flag.Bool("record-golden", false, "recompute the golden references into internal/bench/testdata")
	)
	flag.Parse()

	switch {
	case *compare:
		os.Exit(runCompare(*specPath, flag.Args()))
	case *recordGolden:
		bench.CurrentEnv("")
		if err := bench.RecordGolden(filepath.Join("internal", "bench", "testdata")); err != nil {
			fatal(err)
		}
		return
	}

	names := bench.Workloads()
	if *workload != "" {
		names = []string{*workload}
	}
	sizes := bench.FullSizes()
	modes := []bool{*trace != 0}
	if *smoke {
		sizes, modes, *seconds = bench.SmokeSizes(), []bool{false, true}, 0
	}

	scratch, err := makeScratch()
	if err != nil {
		fatal(err)
	}
	file := bench.File{Schema: bench.SchemaVersion, Env: bench.CurrentEnv(commit()), Seed: *seed, Seconds: *seconds}
	fmt.Printf("specbench: %s %s/%s, GOMAXPROCS %d of %d cpus (%s), workers %d, commit %s\n",
		file.Env.GoVersion, file.Env.GOOS, file.Env.GOARCH, file.Env.GOMAXPROCS, file.Env.NumCPU,
		file.Env.CPUModel, file.Env.Workers, file.Env.Commit)
	var spans []bench.Span
	ok := true
	for _, traced := range modes {
		for _, name := range names {
			res, err := bench.Run(bench.Options{Workload: name, Seed: *seed, Seconds: *seconds,
				Trace: traced, Sizes: sizes, ScratchDir: scratch})
			if err != nil {
				os.RemoveAll(scratch)
				fatal(err)
			}
			printResult(res)
			ok = ok && res.Correct
			spans = append(spans, res.Spans()...)
			file.Workloads = append(file.Workloads, *res)
		}
	}
	os.RemoveAll(scratch)

	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteChromeTrace(f, spans); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if len(file.Workloads) == 1 {
		// The contract line: one JSON object, last on standard output.
		w := file.Workloads[0]
		line := struct {
			Correct   bool                    `json:"correct"`
			Attempted int                     `json:"attempted"`
			Failed    int                     `json:"failed"`
			Metrics   map[string]contractItem `json:"metrics"`
		}{w.Correct, w.Attempted, w.Failed, map[string]contractItem{}}
		for name, m := range w.Metrics {
			line.Metrics[name] = contractItem{m.Value, m.Unit}
		}
		data, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	}
	if !ok {
		os.Exit(1)
	}
}

type contractItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// makeScratch creates this process's scratch directory under the
// working directory (the benchmark reads and writes only inside its
// checkout). The path stays relative: unix socket addresses are short.
func makeScratch() (string, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

// commit is the VCS revision the binary was built from, when the
// toolchain stamped one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printResult(r *bench.WorkloadResult) {
	mode := "end-to-end, tracing off"
	if r.Traced {
		mode = "per-layer, traced run"
	}
	fmt.Printf("\nworkload %s (%s): seed %d, %d timed reps, attempted %d, failed %d, failed_share %g\n",
		r.Name, mode, r.Seed, r.Reps, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	fmt.Printf("  valid_for: %s\n", r.ValidFor)
	noisy := ""
	if r.Noisy {
		noisy = "  NOISY: host drifted > 10 % during this workload; do not read its rows as a regression"
	}
	fmt.Printf("  calibration spin %.1f ms before, %.1f ms after%s\n", r.CalibMs[0], r.CalibMs[1], noisy)
	for _, f := range r.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	for _, name := range metricOrder(r) {
		m := r.Metrics[name]
		switch {
		case m.Skipped != "":
			fmt.Printf("  %-32s %14s %-8s skipped: %s\n", name, "-", m.Unit, m.Skipped)
		case m.N > 1:
			fmt.Printf("  %-32s %14.6g %-8s reps: n %d, median %.6g, q1 %.6g, q3 %.6g, min %.6g, max %.6g\n",
				name, m.Value, m.Unit, m.N, m.Median, m.Q1, m.Q3, m.Min, m.Max)
		default:
			fmt.Printf("  %-32s %14.6g %-8s\n", name, m.Value, m.Unit)
		}
	}
}

// metricOrder lists the metrics a result holds, in declaration order.
func metricOrder(r *bench.WorkloadResult) []string {
	var out []string
	for _, e := range bench.EndToEnd {
		if _, ok := r.Metrics[e[0]]; ok {
			out = append(out, e[0])
		}
	}
	for _, p := range bench.PerLayer {
		if _, ok := r.Metrics[p.Name]; ok {
			out = append(out, p.Name)
		}
	}
	return out
}

func runCompare(specPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: specbench -compare old.json new.json")
		return 2
	}
	spec, err := bench.LoadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	oldF, err := bench.LoadFile(args[0])
	if err != nil {
		fatal(err)
	}
	newF, err := bench.LoadFile(args[1])
	if err != nil {
		fatal(err)
	}
	fmt.Printf("old: %s commit %s, GOMAXPROCS %d, seed %d\nnew: %s commit %s, GOMAXPROCS %d, seed %d\n",
		args[0], oldF.Env.Commit, oldF.Env.GOMAXPROCS, oldF.Seed, args[1], newF.Env.Commit, newF.Env.GOMAXPROCS, newF.Seed)
	rows, failedRose := bench.Compare(oldF, newF, spec)
	if bench.PrintCompare(os.Stdout, rows, failedRose) {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "specbench:", err)
	os.Exit(2)
}
