package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadSet reads an NDJSON result set and groups the untraced records'
// end-to-end readings by workload and metric.
func loadSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Traced {
			continue
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s: workload %s seed %d failed %d of %d operations; timings of a failing run do not compare",
				path, rec.Workload, rec.Seed, rec.Failed, rec.Attempted)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, r := range rec.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], r.Value)
		}
	}
	return set, sc.Err()
}

// compareSets prints, per workload and end-to-end metric, both medians and
// both interquartile ranges (as a share of the median), and judges the
// pair against the metric's bound: b may not be worse than a by more than
// the bound, and neither spread may exceed it (a spread wider than the
// bound cannot resolve a change of that size). Run it both ways round for
// an A/A check. It returns the exit code: 1 on any exceedance.
func compareSets(w io.Writer, pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadSet(pathB); err == nil {
			return judge(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func judge(w io.Writer, a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Fprintf(w, "%-17s %-18s %4s %13s %7s %13s %7s %8s %6s  %s\n",
		"workload", "metric", "n", "median a", "iqr a", "median b", "iqr b", "b worse", "bound", "verdict")
	for _, wl := range workloadNames() {
		for _, def := range endToEnd {
			xa, xb := a[wl][def.Name], b[wl][def.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			sa, sb := 0.0, 0.0
			if len(xa) > 1 && len(xb) > 1 {
				sa, sb = iqrShare(xa), iqrShare(xb)
			}
			worse := (mb - ma) / ma
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "agree"
			switch {
			case worse > def.Bound:
				verdict = "EXCEEDS-BOUND"
				code = 1
			case def.Name != "setup_s" && (sa > def.Bound || sb > def.Bound):
				verdict = "SPREAD-EXCEEDS-BOUND"
				code = 1
			}
			fmt.Fprintf(w, "%-17s %-18s %4d %13.6g %6.2f%% %13.6g %6.2f%% %+7.2f%% %5.1f%%  %s\n",
				wl, def.Name, min(len(xa), len(xb)), ma, 100*sa, mb, 100*sb, 100*worse, 100*def.Bound, verdict)
		}
	}
	return code
}
