package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"bsmp"
	"bsmp/internal/serve"
)

// firstOps draws up to n requests of a plan.
func firstOps(t *testing.T, name string, seed uint64, n int) (*plan, []op) {
	t.Helper()
	_, p, err := newPlan(name, seed, 10)
	if err != nil {
		t.Fatal(err)
	}
	var ops []op
	for len(ops) < n {
		o, ok := p.next()
		if !ok {
			break
		}
		ops = append(ops, o)
	}
	return p, ops
}

// encode renders requests (with their due times) for comparison.
func encode(t *testing.T, p *plan, ops []op) string {
	t.Helper()
	type row struct {
		Run   *serve.RunRequest
		Sweep *serve.SweepRequest
		Get   string
		Due   int64
	}
	rows := make([]row, len(ops))
	for i, o := range ops {
		rows[i] = row{o.run, o.sweep, o.get, int64(o.due)}
	}
	b, err := json.Marshal(struct {
		Warm []serve.RunRequest
		Ops  []row
	}{p.warm, rows})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSameSeedSameRequests(t *testing.T) {
	seq := func(name string, seed uint64) string {
		p, ops := firstOps(t, name, seed, 200)
		return encode(t, p, ops)
	}
	for name := range specs {
		a := seq(name, 7)
		if b := seq(name, 7); a != b {
			t.Errorf("%s: seed 7 gave two different request sequences", name)
		}
		if c := seq(name, 8); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

func TestRequestsAreValid(t *testing.T) {
	check := func(name string, r serve.RunRequest) {
		cfg := bsmp.SchemeConfig{Multi: bsmp.MultiOptions{Theta: r.Config.Theta, Faults: r.Config.Faults}}
		if err := bsmp.ValidateParams(r.Scheme, r.D, r.N, r.P, r.M, r.Steps, cfg); err != nil {
			t.Errorf("%s: %s: %v", name, tupleKey(r), err)
		}
	}
	for name := range specs {
		p, ops := firstOps(t, name, 3, 5000)
		for _, r := range p.warm {
			check(name, r)
		}
		for _, o := range ops {
			if o.run != nil {
				check(name, *o.run)
			}
			if o.sweep != nil {
				if n := gridPoints(o.sweep); n != 150 {
					t.Errorf("%s: sweep of %d points, want 150", name, n)
				}
			}
		}
	}
}

func TestRunMultiMissesAndRunHotHits(t *testing.T) {
	p, ops := firstOps(t, "run-multi", 5, 1<<20)
	if want := 60 * 10; len(ops) != want {
		t.Errorf("run-multi sent %d requests in 10s, want %d", len(ops), want)
	}
	warm := map[serve.RunRequest]bool{}
	for _, r := range p.warm {
		warm[r] = true
	}
	seen := map[serve.RunRequest]bool{}
	ranges := map[int]bool{}
	for _, o := range ops {
		r := *o.run
		if seen[r] || warm[r] {
			t.Errorf("run-multi repeats %s: it would hit the result cache", tupleKey(r))
		}
		seen[r] = true
		ranges[mRange(r.D, r.N, r.P, r.M)] = true
	}
	if !ranges[1] || !ranges[2] || !ranges[3] {
		t.Errorf("run-multi covers Theorem 1 ranges %v, want 1-3", ranges)
	}

	p, ops = firstOps(t, "run-hot", 5, 1<<20)
	hot := map[serve.RunRequest]bool{}
	for _, r := range p.warm {
		hot[r] = true
	}
	if len(hot) != hotSet {
		t.Errorf("run-hot set-up has %d distinct tuples, want %d", len(hot), hotSet)
	}
	for _, o := range ops {
		if o.run != nil && !hot[*o.run] {
			t.Errorf("run-hot sends %s, which set-up did not run", tupleKey(*o.run))
		}
	}
}

func TestPercentileRule(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		q    float64
		want float64
		ok   bool
	}{{0.5, 50, true}, {0.9, 90, true}, {0.91, 91, false}, {0.99, 99, false}, {1, 100, false}} {
		if v, ok := percentile(xs, c.q); v != c.want || ok != c.ok {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v, %v", c.q, v, ok, c.want, c.ok)
		}
	}
	if v, ok := percentile(xs[:20], 0.5); v != 90 || !ok {
		t.Errorf("p50 of 20 samples = %v, %v; want 90 with 10 beyond", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("p50 of no samples is reportable")
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		decl []metricUnit
		json []struct{ Name, Unit string }
	}{{endToEndMetrics, doc.EndToEnd}, {perLayerMetrics, doc.PerLayer}} {
		var got []metricUnit
		for _, m := range c.json {
			got = append(got, metricUnit{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.decl) {
			t.Errorf("BENCHMARK.json lists %v, the benchmark reports %v", got, c.decl)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricUnit(nil), endToEndMetrics...), perLayerMetrics...) {
		if !metricName.MatchString(d.name) || len(d.name) > 64 || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range doc.Work {
		if specs[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(doc.Work) != len(specs) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Work), len(specs))
	}
}

func TestSelfTimes(t *testing.T) {
	// Nested, non-overlapping spans: self times add up to the root.
	root := &bsmp.Span{Name: "scheme:x", StartNS: 0, DurNS: 100, Children: []*bsmp.Span{
		{Name: "calibrate", StartNS: 10, DurNS: 30, Children: []*bsmp.Span{{Name: "block", StartNS: 15, DurNS: 10}}},
		{Name: "replay", StartNS: 50, DurNS: 20},
	}}
	st := newSpanStats()
	st.add(root, serve.RunRequest{N: 4, Steps: 5})
	want := map[string]int64{"scheme:x": 50, "calibrate": 20, "block": 10, "replay": 20}
	for name, w := range want {
		if got := int64(st.self[name]); got != w {
			t.Errorf("self[%s] = %d, want %d", name, got, w)
		}
	}
	if all := st.sum(func(string) bool { return true }); all != 100 {
		t.Errorf("self times sum to %d, want the root's 100", all)
	}
	if st.incl["calibrate"] != 30 || st.vertices != 20 {
		t.Errorf("calibrate inclusive %d, replayed vertices %v; want 30 and 4·5", st.incl["calibrate"], st.vertices)
	}

	// Overlapping children count once; a child running past its parent
	// is clipped.
	root = &bsmp.Span{StartNS: 0, DurNS: 100, Children: []*bsmp.Span{
		{StartNS: 10, DurNS: 30}, {StartNS: 30, DurNS: 30}, {StartNS: 90, DurNS: 30},
	}}
	if got := covered(root); got != 60 {
		t.Errorf("covered = %d, want 60", got)
	}
}
