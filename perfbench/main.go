// Command perfbench is the repository benchmark. It starts in-process NDPipe
// fleets from the public constructors, drives one of three workloads from a
// seed, checks every output, and prints the result as one JSON line:
//
//	perfbench --workload retrain|relabel|upload --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run. See README.md for the
// workloads, the metric definitions and which end-to-end metric each
// per-layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ndpipe/internal/telemetry"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back: the result plus diagnostics
// printed on the detail line (per-rate percentiles with sample counts,
// classifier hashes, failure reasons).
type outcome struct {
	result
	detail map[string]any
	rec    *recorder
}

func (o *outcome) set(name, unit string, v float64) {
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) count(ops, failed int, reasons ...string) {
	o.Attempted += ops
	o.Failed += failed
	if len(reasons) > 0 {
		prev, _ := o.detail["failures"].([]string)
		o.detail["failures"] = append(prev, reasons...)
	}
}

func newOutcome() *outcome {
	return &outcome{result: result{Metrics: map[string]metric{}}, detail: map[string]any{}}
}

var workloads = map[string]func(*inputs, time.Duration) *outcome{
	"retrain": runRetrain,
	"relabel": runRelabel,
	"upload":  runUpload,
}

func main() {
	workload := flag.String("workload", "", "retrain, relabel or upload")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	commit := flag.String("commit", "", "source commit, recorded in the result")
	outDir := flag.String("out", ".bench_build/perfbench", "where spans and results are written")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload retrain|relabel|upload, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if err := telemetry.SetupLogging(os.Stderr, "warn", false); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	budget := time.Duration(*seconds) * time.Second
	in := makeInputs(*seed)
	var o *outcome
	if *trace == 1 {
		o = runTraced(in, budget)
	} else {
		o = run(in, budget)
	}
	o.Correct = o.Failed == 0 && o.Attempted > 0
	o.detail["meta"] = map[string]any{
		"workload":      *workload,
		"seed":          *seed,
		"seconds":       *seconds,
		"trace":         *trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        *commit,
		"source_sha256": sourceHash("."),
		"kind":          "measured",
	}
	name := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace)
	if o.rec != nil {
		path := filepath.Join(*outDir, "spans", name+".jsonl")
		if err := o.rec.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		o.detail["spans_file"] = path
	}
	detail, err := json.Marshal(map[string]any{"detail": o.detail})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	final, err := json.Marshal(o.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResult(filepath.Join(*outDir, "results", name+".json"), detail, final); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result file:", err)
		os.Exit(1)
	}
	fmt.Println(string(detail))
	fmt.Println(string(final))
}

// writeResult keeps a copy of both output lines next to the span files.
func writeResult(path string, lines ...[]byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b []byte
	for _, l := range lines {
		b = append(append(b, l...), '\n')
	}
	return os.WriteFile(path, b, 0o644)
}

// sourceHash identifies the measured source tree when no commit is known:
// a SHA-256 over every Go source and module file, in path order.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
