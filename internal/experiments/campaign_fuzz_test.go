package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseCampaign asserts two invariants over arbitrary scenario
// bytes: ParseCampaign never panics, and every accepted campaign
// round-trips — marshalling it and parsing the result yields the same
// campaign, so nothing a user can express is lost or mutated by the
// strict decoder. The seed corpus is every example scenario plus the
// malformed shapes the decoder is supposed to reject loudly (unknown
// fields, trailing documents, negative overrides, type confusion).
func FuzzParseCampaign(f *testing.F) {
	scenarios, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(scenarios) == 0 {
		f.Fatal("no example scenarios found for the seed corpus")
	}
	for _, path := range scenarios {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		``,
		`{}`,
		`not json at all`,
		`{"machines": [{"name": "core2"}], "suites": ["cpu2000"]}`,
		`{"machines": [{"name": "core2"}], "suites": ["cpu2000"], "typo": 1}`,
		`{"machines": [{"name": "core2", "overrides": {"robSize": -5}}], "suites": ["cpu2000"]}`,
		`{"machines": [{"name": "x", "base": "core2", "overrides": {"fusionRate": 0}}], "suites": ["cpu2000"]}`,
		`{"machines": [{"name": "core2"}], "suites": ["cpu2000"]} {"trailing": "doc"}`,
		`{"machines": [{"name": "core2"}], "suites": ["cpu2000"]}}`,
		`{"machines": [{"name": "core2"}], "suites": ["cpu2000"]}]`,
		`{"machines": [], "suites": []}`,
		`{"machines": [{"name": "core2"}], "suites": ["cpu2000"], "ops": 1.5}`,
		`{"machines": [{"name": "core2"}], "suites": ["cpu2000"], "ops": -3, "seed": 7}`,
		`{"machines": [{"name": "core2", "overrides": {"l2": {"sizeBytes": 1048576}}}], "suites": ["cpu2000", "cpu2000"]}`,
		`[{"name": "core2"}]`,
		`{"machines": "core2", "suites": "cpu2000"}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseCampaign(data)
		if err != nil {
			return // rejection is fine; panicking or corrupting is not
		}
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("accepted campaign does not marshal: %v\n%s", err, data)
		}
		c2, err := ParseCampaign(out)
		if err != nil {
			t.Fatalf("marshalled campaign does not re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("campaign round-trip mutated the value:\n in  %+v\n out %+v\n(json %s)", c, c2, out)
		}
	})
}

// FuzzJobSpec asserts the POST /v1/jobs invariants over arbitrary bytes:
// decoding a job spec the way the endpoint does (DecodeStrict) and
// validating it through the kind table (ResolveJob, which runs nothing)
// never panics or hangs, and every accepted spec round-trips — its
// marshalled form re-decodes to a spec that is accepted with the same
// totals and marshals identically. The seed corpus is every example
// spec wrapped in its kind, plus mis-tagged and double-payload specs.
// oversizedJobs are job specs whose sizes once ended the process in a
// fatal out-of-memory error or mislabelled a cell: a seeds count
// expanded into a list before the MaxSeeds check, campaign ops
// materialized into one trace buffer, a ROB of 2^40 entries allocated
// by the simulator (from a plan axis or a scenario override), and an
// l2kb value whose shift to bytes overflowed to "keep base". ResolveJob
// must reject each before allocating anything.
var oversizedJobs = []string{
	`{"kind":"seeds","seeds":{"base":{"name":"core2"},"suite":"cpu2000","count":1073741824}}`,
	`{"kind":"campaign","campaign":{"machines":[{"name":"core2"},{"name":"pentium4"}],"suites":["cpu2000"],"ops":100000000000}}`,
	`{"kind":"plan","plan":{"base":{"name":"core2"},"axes":[{"param":"rob","values":[1099511627776]}],"suite":"cpu2000"}}`,
	`{"kind":"plan","plan":{"base":{"name":"core2"},"axes":[{"param":"l2kb","values":[18014398509481984]}],"suite":"cpu2000"}}`,
	`{"kind":"campaign","campaign":{"machines":[{"name":"big","base":"core2","overrides":{"robSize":1099511627776}}],"suites":["cpu2000"]}}`,
}

func FuzzJobSpec(f *testing.F) {
	for dir, kind := range map[string]string{
		"scenarios": JobKindCampaign, "plans": JobKindPlan, "optimize": JobKindOptimize, "seeds": JobKindSeeds,
	} {
		paths, err := filepath.Glob(filepath.Join("..", "..", "examples", dir, "*.json"))
		if err != nil {
			f.Fatal(err)
		}
		if len(paths) == 0 {
			f.Fatalf("no example %s found for the seed corpus", dir)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add([]byte(`{"kind": "` + kind + `", "` + kind + `": ` + string(data) + `}`))
		}
	}
	const sweep = `{"base": {"name": "core2"}, "param": "rob", "values": [48, 96], "suite": "cpu2000"}`
	const plan = `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2000"}`
	for _, seed := range append([]string{
		`{"kind": "sweep", "sweep": ` + sweep + `}`,
		`{"kind": "sweep", "plan": ` + plan + `}`,
		`{"kind": "plan", "plan": ` + plan + `, "sweep": ` + sweep + `}`,
		`{"kind": "seeds", "seeds": {"base": {"name": "core2"}, "suite": "cpu2000", "count": 2}, "plan": ` + plan + `}`,
		`{"kind": "campaign", "campaign": null}`,
		`{"kind": "fleet"}`,
		`{"kind": "plan", "plan": ` + plan + `}}`,
		`{}`,
		``,
	}, oversizedJobs...) {
		f.Add([]byte(seed))
	}

	opts := Options{NumOps: 1000}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if err := DecodeStrict(bytes.NewReader(data), &spec); err != nil {
			return
		}
		exp, err := ResolveJob(spec, opts)
		if err != nil {
			return // rejection is fine; panicking or corrupting is not
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v\n%s", err, data)
		}
		var again JobSpec
		if err := DecodeStrict(bytes.NewReader(out), &again); err != nil {
			t.Fatalf("marshalled spec does not re-decode: %v\n%s", err, out)
		}
		exp2, err := ResolveJob(again, opts)
		if err != nil {
			t.Fatalf("marshalled spec is rejected: %v\n%s", err, out)
		}
		if exp2.Totals != exp.Totals {
			t.Fatalf("round trip changed the totals: %+v vs %+v\n%s", exp.Totals, exp2.Totals, out)
		}
		if out2, err := json.Marshal(again); err != nil || !bytes.Equal(out, out2) {
			t.Fatalf("round trip is not stable (%v):\n%s\n%s", err, out, out2)
		}
	})
}
