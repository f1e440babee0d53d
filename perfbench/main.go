// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed time, checks the program's outputs, and
// prints every metric by name with its unit; the last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd); with
// --trace 1 a separate traced run prints the per-layer ones (perLayer), each
// beside the end-to-end metric and workload it is predicted to move.
// README.md records why each workload and metric is here.
//
// Run it through run.py, which builds this package inside the checkout:
//
//	python3 perfbench/run.py --workload pairs-deep --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	measure time.Duration // the timed part of the run
	traced  bool
	spans   *spanLog // traced runs only
}

// benchWorkload is one set of inputs the benchmark runs.
type benchWorkload struct {
	name string
	run  func(cfg runConfig) (*report, error)
}

var workloads = []benchWorkload{
	{"pairs-deep", func(c runConfig) (*report, error) { return runPairs(c, deepPairs) }},
	{"pairs-shallow", func(c runConfig) (*report, error) { return runPairs(c, shallowPairs) }},
	{"sssp-batch8", runSSSP},
	{"serve-bursty", runServe},
}

// report collects one run's metrics and output checks.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records n checked operations of which bad were wrong.
func (r *report) check(what string, n, bad int64) {
	r.attempted += n
	r.failed += bad
	if bad > 0 {
		r.note("CHECK FAILED  %s: %d of %d wrong", what, bad, n)
	}
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the run's notes, then the result line. Every metric of the
// run's list must have been measured; per-layer metrics of a layer the
// workload does not exercise read 0 and are marked so in the table.
func emit(r *report, traced bool) error {
	out := map[string]jsonMetric{}
	if traced {
		for _, m := range perLayer {
			v, ok := r.metrics[m.name]
			status := ""
			if !ok {
				v, status = 0, "  (not exercised here)"
			}
			r.note("%-30s %14.4f %-9s -> %s%s", m.name, v, m.unit, m.moves, status)
			out[m.name] = jsonMetric{v, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := r.metrics[m.name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			r.note("%-30s %14.4f %s", m.name, v, m.unit)
			out[m.name] = jsonMetric{v, m.unit}
		}
	}
	for name, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run: pairs-deep, pairs-shallow, sssp-batch8 or serve-bursty")
	seed := flag.Uint64("seed", 1, "seed every input is made from")
	seconds := flag.Float64("seconds", 10, "length of the timed part in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	spanDir := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	flag.Parse()

	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
	}
	if cfg.traced {
		cfg.spans = newSpanLog()
	}
	r, err := w.run(cfg)
	if err == nil && cfg.traced {
		path := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		err = cfg.spans.write(path)
		r.note("spans: %d kept, %d dropped, written to %s", len(cfg.spans.spans), cfg.spans.dropped, path)
	}
	if err == nil {
		err = emit(r, cfg.traced)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
