// Command livebench is the benchmark of the live TAS stack: two
// tas.Services on one in-process tas.Fabric, driven only through the
// public tas API by closed-loop clients.
//
//	livebench --workload echo|pipelined|bulk|churn --seed N --seconds S --trace 0|1
//
// With --trace 0 it runs one fresh stack per second of the run (at
// least three), each for an equal share of the seconds, and reports the
// end-to-end metrics over all of their operations. With --trace 1 it runs one untraced and one traced
// round (telemetry on, fabric capture attached) of half the seconds
// each, and reports the per-layer metrics. Human-readable lines come
// first; the last line of standard output is the JSON result.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// roundLen is the measured length of one untraced round. The host's
// scheduling can settle a stack into a faster or slower mode for its
// whole life, so an untraced run measures many fresh stacks rather than
// one long-lived stack.
const roundLen = time.Second

// untracedRounds is how many rounds an untraced run of d splits into.
func untracedRounds(d time.Duration) int { return max(3, int(d/roundLen)) }

// endToEnd lists the metrics an untraced run reports on every workload.
// One operation is a workload's unit of work (see workload.op).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_us", "us", "lower"},
	{"op_p99_us", "us", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"goodput_mb_s", "MB/s", "higher"},
}

// aliases gives the workload-specific name of each headline metric.
var aliases = map[string]map[string]string{
	"echo":      {"op_p50_us": "rpc_p50_us", "op_p99_us": "rpc_p99_us"},
	"pipelined": {"ops_per_s": "rpc_per_s"},
	"bulk":      {"goodput_mb_s": "goodput_mb_s"},
	"churn":     {"op_p50_us": "conn_p50_us", "op_p99_us": "conn_p99_us"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("livebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: echo, pipelined, bulk or churn")
	seed := fs.Int64("seed", 1, "seed all payload bytes derive from")
	seconds := fs.Float64("seconds", 10, "measured seconds, shared by the run's rounds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced round, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "livebench: need --workload echo|pipelined|bulk|churn, --seconds > 0, --trace 0|1\n")
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()

	fmt.Fprintf(out, "livebench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(out, "workload %s: %s; closed loop, %d client goroutine(s); one op = %s\n", w.name, w.why, w.clients, w.op)
	fmt.Fprintf(out, "host %s\n", hostStamp())
	fmt.Fprintf(out, "config both services, untraced rounds: %+v\n", stackConfig(false))
	if *trace == 1 {
		fmt.Fprintf(out, "config both services, traced round: %+v\n", stackConfig(true))
	}

	var in *bulkInput
	if w.name == "bulk" {
		in = newBulkInput(*seed)
	}
	total := time.Duration(*seconds * float64(time.Second))
	var untraced []*roundResult
	var traced *roundResult
	plan := []bool{}
	if *trace == 0 {
		for range untracedRounds(total) {
			plan = append(plan, false)
		}
	} else {
		plan = append(plan, false, true)
	}
	res := result{Correct: true, Metrics: map[string]metricOut{}}
	for i, tr := range plan {
		rr, err := runRound(w, *seed, total/time.Duration(len(plan)), tr, in)
		if err != nil {
			// A stack that cannot be set up counts as one failed operation.
			fmt.Fprintf(out, "round %d: set-up failed: %v\n", i, err)
			res.Attempted++
			res.Failed++
			continue
		}
		fmt.Fprintf(out, "round %d traced=%v: setup %.3f ms, %d ops, %d failed, p50 %.1f us, p99 %.1f us, %d server errors, leak audit %s\n",
			i, tr, rr.setup.Seconds()*1e3, len(rr.lats), rr.failed, percentileUS(rr.lats, 0.5), percentileUS(rr.lats, 0.99),
			rr.srvErrors, leakText(rr.leaks))
		if rr.firstErr != nil {
			fmt.Fprintf(out, "round %d first error: %v\n", i, rr.firstErr)
		}
		for _, p := range rr.problems {
			fmt.Fprintf(out, "round %d CHECK FAILED: %s\n", i, p)
			res.Correct = false
		}
		res.Attempted += len(rr.lats)
		res.Failed += rr.failed
		if tr {
			traced = rr
		} else {
			untraced = append(untraced, rr)
		}
	}
	if len(untraced) == 0 || (*trace == 1 && traced == nil) || res.Attempted == 0 {
		fmt.Fprintf(stderr, "livebench: no round could be measured\n")
		return 1
	}

	e2e := endToEndValues(untraced)
	for _, m := range endToEnd {
		v := e2e[m.name]
		alias := ""
		if a, ok := aliases[w.name][m.name]; ok {
			alias = " [" + a + "]"
		}
		fmt.Fprintf(out, "e2e %-14s %14.4f %-5s samples=%s%s\n", m.name, v.value, m.unit, v.samples, alias)
		if *trace == 0 {
			res.Metrics[m.name] = metricOut{v.value, m.unit}
		}
	}
	if *trace == 1 {
		ls := traced.layer
		tracedP50 := percentileUS(traced.lats, 0.5)
		ls.set("trace.overhead", ratio(tracedP50, e2e["op_p50_us"].value), len(traced.lats))
		u := untraced[0]
		ls.set("go.allocs_per_op", u.goAllocs, u.ok())
		ls.set("go.bytes_per_op", u.goBytes, u.ok())
		ls.set("go.gc_cpu_frac", u.gcFrac, 0)
		leaks := 0
		for _, rr := range append(untraced, traced) {
			leaks += len(rr.leaks)
		}
		ls.set("resource.leak", float64(leaks), 0)
		pkts, data := traced.capturePkts, traced.captureData
		fmt.Fprintf(out, "capture: %d packets, %d data segments crossed the fabric in the traced round\n", pkts, data)
		for _, k := range []string{"capture.unmatched", "capture.misordered"} {
			if v := ls.values[k]; v != 0 {
				fmt.Fprintf(out, "CHECK FAILED: %s = %g, want 0\n", k, v)
				res.Correct = false
			}
		}
		for _, m := range perLayer {
			v, ok := ls.values[m.name]
			if !ok {
				panic("per-layer metric not measured: " + m.name)
			}
			if why, no := ls.absent[m.name]; no {
				fmt.Fprintf(out, "layer %-30s absent: %s\n", m.name, why)
			} else {
				n := ""
				if k := ls.samples[m.name]; k > 0 {
					n = fmt.Sprintf("samples=%d", k)
				}
				fmt.Fprintf(out, "layer %-30s %14.4f %-5s %s\n", m.name, v, m.unit, n)
			}
			res.Metrics[m.name] = metricOut{v, m.unit}
		}
	}
	fmt.Fprintf(out, "ops attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	if err := out.Flush(); err != nil {
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "livebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type e2eValue struct {
	value   float64
	samples string
}

// endToEndValues reduces untraced rounds to the end-to-end metrics.
// Percentiles and rates are taken over every operation of every round;
// set-up time is the median over the rounds' set-ups.
func endToEndValues(rounds []*roundResult) map[string]e2eValue {
	var lats []uint32
	var setups []float64
	var ok, bytes, secs float64
	failed := 0
	for _, rr := range rounds {
		lats = append(lats, rr.lats...)
		setups = append(setups, rr.setup.Seconds())
		ok += float64(rr.ok())
		bytes += float64(rr.bytes)
		secs += rr.window.Seconds()
		failed += rr.failed
	}
	slices.Sort(lats)
	ops := fmt.Sprintf("%d ops (%d failed) in %d rounds, %.1f s measured", len(lats), failed, len(rounds), secs)
	return map[string]e2eValue{
		"setup_s":      {median(setups), fmt.Sprintf("%d set-ups, median", len(setups))},
		"op_p50_us":    {percentileUS(lats, 0.50), ops},
		"op_p99_us":    {percentileUS(lats, 0.99), ops},
		"ops_per_s":    {ratio(ok, secs), ops},
		"goodput_mb_s": {ratio(bytes/1e6, secs), ops},
	}
}

func leakText(leaks []string) string {
	if len(leaks) == 0 {
		return "clean"
	}
	return "LEAK " + strings.Join(leaks, " ")
}

// hostStamp describes the host and build: CPU model, CPU count,
// GOMAXPROCS, Go version and the commit the binary was built from.
func hostStamp() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, mod string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				mod = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if mod == "true" {
				commit += "+modified"
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}
