package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFig2GoldenOutput pins the fig2 artifact byte-for-byte against the
// output captured from the pre-scenario-engine code (ops=20000,
// starts=2): the refactor onto registries, campaigns and struct run keys
// must be invisible in the emitted artifacts. Regenerate with
//
//	go run ./cmd/experiments -run fig2 -ops 20000 -starts 2 2>/dev/null \
//	  > cmd/experiments/testdata/fig2_ops20000_starts2.golden
//
// only when an intentional simulator/model change (sim.Version bump)
// changes the numbers.
func TestFig2GoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig2 campaign is slow")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fig2_ops20000_starts2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := realMain(&out, io.Discard, "fig2", 20000, 2, "", ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("fig2 output drifted from pre-refactor golden (%d vs %d bytes)",
			out.Len(), len(want))
	}
}

func TestUnknownArtifactListsValidNames(t *testing.T) {
	err := realMain(&bytes.Buffer{}, io.Discard, "fig9", 1000, 2, "", "")
	if err == nil {
		t.Fatal("expected error for unknown artifact")
	}
	for _, name := range artifactNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error should list %q: %v", name, err)
		}
	}
}

func TestArtifactTableIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range artifacts {
		if a.name == "" || a.name == "all" {
			t.Errorf("reserved or empty artifact name %q", a.name)
		}
		if seen[a.name] {
			t.Errorf("duplicate artifact %q", a.name)
		}
		seen[a.name] = true
		if a.emit == nil {
			t.Errorf("artifact %q has no emitter", a.name)
		}
	}
	for _, want := range []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "ablation"} {
		if !seen[want] {
			t.Errorf("artifact table lost %q", want)
		}
	}
}

func TestPaperOnlyArtifactRejectedUnderScenario(t *testing.T) {
	dir := t.TempDir()
	scenario := filepath.Join(dir, "s.json")
	if err := os.WriteFile(scenario, []byte(`{
		"machines": [
			{"name": "core2"},
			{"name": "core2-rob48", "base": "core2", "overrides": {"robSize": 48}}
		],
		"suites": ["cpu2000"]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := realMain(&bytes.Buffer{}, io.Discard, "fig6", 1000, 2, "", scenario)
	if err == nil || !strings.Contains(err.Error(), "paper campaign") {
		t.Errorf("fig6 under a scenario should be rejected, got %v", err)
	}
}

func TestScenarioCampaignRunsGenericArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario campaign is slow")
	}
	dir := t.TempDir()
	scenario := filepath.Join(dir, "s.json")
	if err := os.WriteFile(scenario, []byte(`{
		"machines": [
			{"name": "core2"},
			{"name": "core2-mem320", "base": "core2", "overrides": {"memLat": 320}}
		],
		"suites": ["cpu2000"],
		"fitStarts": 2
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := realMain(&out, io.Discard, "all", 5000, 2, "", scenario); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "core2-mem320") {
		t.Errorf("output should cover the derived machine:\n%s", text)
	}
	if strings.Contains(text, "Figure 6") || strings.Contains(text, "Ablations") {
		t.Error("paper-only artifacts must not run under a scenario")
	}
}
