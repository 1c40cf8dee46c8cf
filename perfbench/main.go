// Command perfbench is the repository's benchmark. It runs one of four
// workloads over the two substrates — the event-heap simulator and the
// live middleware — checks the program's outputs, and prints a report
// whose last line is one JSON object:
//
//	sh perfbench/run.sh --workload live-tcp --seed 7 --seconds 12 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, measured
// with every benchmark-side wrapper off. With --trace 1 the same inputs
// run twice, once plain and once with wrappers timing the calls into
// each layer's public surface; the object carries the per-layer
// metrics, the report prints a ledger of how the layer costs add up to
// the end-to-end latency, and the two runs' books must agree. A failed
// output check exits 1 after printing the object with "correct": false.
//
// The workloads, the reasons they were chosen and the map from the old
// BENCH_*.json names live in NOTES.md next to this file.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// workload with --trace 0. Each is defined for both substrates (see
// NOTES.md): on the simulator an operation is a task, live it is a
// request. p99 latency is printed in the report but not gated: on a
// shared 2-vCPU host it moved several-fold between runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_peak_mb", "MiB"},
	{"throughput_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"ok_ratio", "ratio"},
}

// moduleNames are the composed stack's modules, in stack order.
var moduleNames = []string{"carbon", "budget", "sla", "preempt", "consolidation"}

// perLayer are the traced run's metrics, printed by every workload
// with --trace 1; a layer a workload does not run reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.arrival_us.p50", "us"},
		{"sim.arrival_us.p99", "us"},
		{"sim.arrival_us.depth_lt256", "us"},
		{"sim.arrival_us.depth_lt4096", "us"},
		{"sim.arrival_us.depth_ge4096", "us"},
		{"sim.depth_max", "count"},
		{"sim.events", "count"},
	}
	for _, m := range moduleNames {
		defs = append(defs, metricDef{"simmod." + m + ".hook_us", "us"})
	}
	return append(defs,
		metricDef{"sched.elections", "count"},
		metricDef{"sched.less_calls_per_election", "count"},
		metricDef{"estvec.encode_ns", "ns"},
		metricDef{"estvec.decode_ns", "ns"},
		metricDef{"estvec.allocs_per_vector", "count"},
		metricDef{"estvec.bytes_per_vector", "B"},
		metricDef{"middleware.transport.estimate_us.p50", "us"},
		metricDef{"middleware.transport.estimate_us.p99", "us"},
		metricDef{"middleware.transport.solve_us.p50", "us"},
		metricDef{"middleware.transport.solve_us.p99", "us"},
		metricDef{"middleware.transport.calls_per_req", "count"},
		metricDef{"middleware.sed.estimate_us.p50", "us"},
		metricDef{"middleware.sed.solve_us.p50", "us"},
		metricDef{"middleware.master.do_us.p50", "us"},
		metricDef{"middleware.master.do_us.p99", "us"},
		metricDef{"middleware.master.self_us.p50", "us"},
		metricDef{"middleware.master.allocs_per_req", "count"},
		metricDef{"journal.appends_per_req", "count"},
		metricDef{"journal.bytes_per_req", "B"},
		metricDef{"journal.sync_errors", "count"},
		metricDef{"powerd.call_us.p50", "us"},
		metricDef{"powerd.call_us.p99", "us"},
		metricDef{"powerd.calls_per_req", "count"},
		metricDef{"powerd.cache_hits_per_req", "count"},
		metricDef{"powerd.errors", "count"},
		metricDef{"powerd.fallbacks", "count"},
		metricDef{"obs.spans_per_req", "count"},
		metricDef{"obs.span_bytes_per_req", "B"},
		metricDef{"obs.write_us_per_req", "us"},
		metricDef{"obs.emit_ns", "ns"},
		metricDef{"loadgen.late_us.p99", "us"},
		metricDef{"loadgen.start_delay_us.p50", "us"},
		metricDef{"loadgen.plain.lat_us.p99", "us"},
		metricDef{"loadgen.plain.sent", "count"},
		metricDef{"loadgen.plain.ok", "count"},
		metricDef{"loadgen.plain.failed", "count"},
		metricDef{"loadgen.traced.sent", "count"},
		metricDef{"loadgen.traced.ok", "count"},
		metricDef{"loadgen.traced.failed", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"trace.residual_us", "us"},
	)
}()

// workloads maps each workload name to its runner.
var workloads = map[string]func(o options, rep *report) (*outcome, error){
	"sim-backlog":  runSimBacklog,
	"sim-composed": runSimComposed,
	"live-tcp":     runLiveTCP,
	"live-durable": runLiveDurable,
}

// outcome is what a workload run hands back: the metric values, the
// operations attempted and failed, and the output checks that failed.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// report is the human-readable part of the output, printed ahead of
// the JSON line.
type report struct{ w io.Writer }

func (r *report) printf(format string, args ...any) { fmt.Fprintf(r.w, format+"\n", args...) }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var trace int
	fl.StringVar(&o.workload, "workload", "", "workload: sim-backlog, sim-composed, live-tcp or live-durable")
	fl.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fl.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds")
	fl.IntVar(&trace, "trace", 0, "1 runs the traced layer ledger instead of the end-to-end metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) || fl.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload {sim-backlog|sim-composed|live-tcp|live-durable} --seed N --seconds S --trace {0|1}\n")
		return 2
	}
	o.trace = trace == 1
	// One process, at most two CPUs, so numbers from a 2-CPU machine
	// and a bigger one stay comparable.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	rep := &report{w: stdout}
	rep.printf("env workload=%s seed=%d seconds=%g trace=%d go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s",
		o.workload, o.seed, o.seconds, trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit())
	out, err := runWorkload(o, rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := jsonResult{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !o.trace {
			out.problems = append(out.problems, "no value for end-to-end metric "+d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if out.attempted < 1 {
		out.problems = append(out.problems, "no operation attempted")
	}
	for _, p := range out.problems {
		rep.printf("CHECK FAILED: %s", p)
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", o.workload, p)
	}
	res.Correct = len(out.problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the measured code: the git revision when the
// working directory is the root of a git checkout (with "-dirty" for
// uncommitted changes), otherwise a digest of the module's Go sources
// and go.mod files under it.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if rev, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output(); err == nil {
			return strings.TrimSpace(string(rev))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// Set-up repeats until it has run setupMinRepeats times and for
// setupMinSec in total, and setup_s is the mean of the calls.
const (
	setupMinRepeats = 11
	setupMinSec     = 2.0
)

// timeSetups repeats setup as the constants above ask and returns
// the mean seconds of a call and the number of calls. teardown,
// when set, runs untimed between two calls.
func timeSetups(setup func(i int) error, teardown func() error) (float64, int, error) {
	var times []float64
	total := 0.0
	for n := 0; n < setupMinRepeats || total < setupMinSec; n++ {
		if n > 0 && teardown != nil {
			if err := teardown(); err != nil {
				return 0, 0, err
			}
		}
		start := time.Now()
		if err := setup(n); err != nil {
			return 0, 0, err
		}
		d := time.Since(start).Seconds()
		times = append(times, d)
		total += d
	}
	return mean(times), len(times), nil
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
