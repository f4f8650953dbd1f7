package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runRecord is one contract run as the suite runner keeps it.
type runRecord struct {
	Workload string
	Traced   bool
	Meta     meta
	Result   result
}

// runChild starts this program again for one contract run, passes its
// output through, and parses the meta line and the closing result line.
func runChild(root, name string, seed int64, seconds int, traced bool) (runRecord, error) {
	rec := runRecord{Workload: name, Traced: traced}
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return rec, err
	}
	if err := cmd.Start(); err != nil {
		return rec, err
	}
	last, parseErr := scanChild(out, &rec)
	runErr := cmd.Wait()
	if runErr != nil {
		return rec, fmt.Errorf("%s trace=%s: %w", name, trace, runErr)
	}
	if parseErr != nil {
		return rec, parseErr
	}
	if err := json.Unmarshal([]byte(last), &rec.Result); err != nil {
		return rec, fmt.Errorf("%s trace=%s: last line is not a result: %w", name, trace, err)
	}
	return rec, nil
}

// scanChild echoes a child's output except its closing JSON line, which it
// returns; the meta line is parsed on the way.
func scanChild(out io.Reader, rec *runRecord) (last string, err error) {
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "meta: "); ok {
			if err := json.Unmarshal([]byte(rest), &rec.Meta); err != nil {
				return "", fmt.Errorf("bad meta line: %w", err)
			}
		}
		if strings.HasPrefix(line, "{") {
			last = line
			continue
		}
		fmt.Println(line)
	}
	return last, sc.Err()
}

// runSuite runs every named workload untraced and traced, `repeat` times
// over, prints the end-to-end table, and with repeat ≥ 2 compares the first
// two repetitions against BENCHMARK.json's bounds. The exit code is
// non-zero when any run failed an output check or any comparison is
// unresolved.
func runSuite(root string, names []string, seed int64, seconds, repeat int) int {
	spec, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	code := 0
	reps := make([]map[string]runRecord, repeat) // untraced records by workload
	for r := range reps {
		reps[r] = map[string]runRecord{}
		for _, name := range names {
			for _, traced := range []bool{false, true} {
				rec, err := runChild(root, name, seed, seconds, traced)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					code = 1
					continue
				}
				if !traced {
					reps[r][name] = rec
				}
			}
		}
	}

	fmt.Printf("\n== end to end (untraced, seed %d, %d s per pass) ==\n", seed, seconds)
	fmt.Printf("%-9s", "workload")
	for _, d := range endToEnd {
		fmt.Printf(" %18s", d.name+" "+d.unit)
	}
	fmt.Printf(" %12s\n", "fail_ratio")
	for r := range reps {
		for _, name := range names {
			rec, ok := reps[r][name]
			if !ok {
				continue
			}
			fmt.Printf("%-9s", name)
			for _, d := range endToEnd {
				fmt.Printf(" %18.6g", rec.Result.Metrics[d.name].Value)
			}
			fmt.Printf(" %12.3g\n", ratio(float64(rec.Result.Failed), float64(rec.Result.Attempted)))
		}
	}
	if repeat < 2 {
		return code
	}

	fmt.Printf("\n== repeatability: run 1 vs run 2 against the bounds in BENCHMARK.json ==\n")
	fmt.Printf("%-9s %-14s %14s %14s %8s %6s  %s\n", "workload", "metric", "run 1", "run 2", "gap", "bound", "")
	for _, name := range names {
		a, okA := reps[0][name]
		b, okB := reps[1][name]
		if !okA || !okB {
			continue
		}
		rows, err := compareRecords(spec, a, b)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
			continue
		}
		for _, row := range rows {
			fmt.Printf("%-9s %-14s %14.6g %14.6g %7.2f%% %5.0f%%  %s\n",
				name, row.metric, row.a, row.b, 100*row.gap, 100*row.bound, row.verdict)
			if row.verdict != "ok" {
				code = 1
			}
		}
	}
	return code
}

// compareRow is one workload × end-to-end metric of two runs of one commit.
type compareRow struct {
	metric     string
	a, b       float64
	gap, bound float64
	verdict    string // ok | unresolved
}

// compareRecords sets two untraced records of one workload side by side.
// It refuses records measured under different conditions. Between two runs
// of the same code a gap above the metric's bound means the benchmark
// cannot resolve a change of that size on this workload: unresolved.
func compareRecords(spec *benchSpec, a, b runRecord) ([]compareRow, error) {
	if a.Meta != b.Meta {
		return nil, fmt.Errorf("%s: results are not comparable: meta differ\n  %+v\n  %+v", a.Workload, a.Meta, b.Meta)
	}
	if a.Workload != b.Workload || a.Traced != b.Traced {
		return nil, fmt.Errorf("results are not comparable: %s trace=%v vs %s trace=%v", a.Workload, a.Traced, b.Workload, b.Traced)
	}
	var rows []compareRow
	for _, sm := range spec.EndToEnd {
		va, okA := a.Result.Metrics[sm.Name]
		vb, okB := b.Result.Metrics[sm.Name]
		if !okA || !okB {
			return nil, fmt.Errorf("%s: metric %s missing from a result", a.Workload, sm.Name)
		}
		row := compareRow{metric: sm.Name, a: va.Value, b: vb.Value, bound: sm.Bound}
		row.gap = math.Abs(vb.Value-va.Value) / math.Abs(va.Value)
		row.verdict = "ok"
		if !(row.gap <= row.bound) {
			row.verdict = "unresolved"
		}
		rows = append(rows, row)
	}
	return rows, nil
}
