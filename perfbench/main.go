// Command perfbench is cardpi's end-to-end serving benchmark. For one
// workload it boots `cardpi serve` as a separate process, drives it with a
// closed loop of nproc clients for a fixed number of seconds, checks every
// answer against an in-process replica, and prints the end-to-end metrics.
// With -trace 1 it also replays the workload's request stream in-process
// with a span around every layer call and prints the per-layer metrics
// instead. See README.md in this directory for the workloads and metrics.
//
// Usage (from the repository root, after building with run.sh):
//
//	perfbench -server <cardpi binary> -workload hot-zipf-wire -seed 1 -seconds 30 -trace 0
//	perfbench -server <cardpi binary> -workload drift-batch -steady 5
//
// The last line of standard output is one JSON object:
// {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}.
// The exit code is nonzero when any answer was wrong or the run could not
// complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// options are the command-line settings of one invocation.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	steady    int
	serverBin string
	outDir    string
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(runMain(opts))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), " | "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the query universe, popularity draws and write seeds derive from it")
	fs.IntVar(&o.seconds, "seconds", 30, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced in-process replay")
	fs.IntVar(&o.steady, "steady", 0, "steadiness mode: run the workload this many times (seeds seed, seed+1, ...) and print each metric's spread")
	fs.StringVar(&o.serverBin, "server", "", "path to the cardpi binary to benchmark (required)")
	fs.StringVar(&o.outDir, "out", ".bench_build/perfbench-out", "directory for server logs, span files and run records")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.serverBin == "" {
		return o, fmt.Errorf("-server is required")
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// runMain executes one invocation and returns the process exit code.
func runMain(o options) int {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.steady > 0 {
		if err := runSteady(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := runOnce(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := saveRecord(o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return exitCode(res)
}

// exitCode maps a finished run to the process exit code: a wrong answer
// anywhere in the run fails it.
func exitCode(res *result) int {
	if !res.correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the correctness verdict, the operation
// counts, the metrics in report order, and human-readable notes printed
// before the JSON line.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	names     []string
	metrics   map[string]metric
	notes     []string
	problems  []string
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]metric{}}
}

func (r *result) set(name string, value float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a wrong answer: the run's verdict becomes incorrect.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// printResult writes the notes, one line per metric, and the final JSON
// line the benchmark contract requires.
func printResult(w io.Writer, r *result) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "MISMATCH:", p)
	}
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// saveRecord writes the run's full output to the -out directory.
func saveRecord(o options, res *result) error {
	name := fmt.Sprintf("record-%s-seed%d-trace%t.txt", o.workload, o.seed, o.trace)
	f, err := os.Create(filepath.Join(o.outDir, name))
	if err != nil {
		return err
	}
	if err := printResult(f, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// environment describes the machine a result was measured on.
func environment() string {
	return fmt.Sprintf("env: nproc=%d gomaxprocs=%d cpu=%q go=%s os=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
