package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzIndentJSON: for any valid JSON document, indentJSON over its
// compact form writes exactly the bytes json.Indent(…, "", "  ") does.
// The corpus holds every wire golden and the edge cases of the string
// and nesting state: empty and nested-empty containers, escaped quotes
// and backslashes (a backslash just before a closing quote), the
// HTML-safe and line-separator escapes json.Marshal writes, and numbers
// with exponents.
func FuzzIndentJSON(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no wire goldens (%v)", err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		`{}`, `[]`, `[{}]`, `{"a":[]}`, `[[],[[]],{}]`, `{"a":{"b":{}},"c":[[{}]]}`,
		`"a\"b"`, `"a\\"`, `{"k\\":"v\\\\","q":"\"\\"}`, `["\\\"",""]`,
		`"<script>"`, "{\"ls\":\"a\u2028b\u2029c\"}", `"\u003c\u2028\u0026"`,
		`[1e10,-2.5E-7,0.1,1e+300,-0,3]`, `{"x":6.02e23}`,
		`true`, `null`, `[true,false,null]`, `{"a:b,c":"{[,]}"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var compact, want bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatalf("Compact rejected a valid document: %v", err)
		}
		if err := json.Indent(&want, compact.Bytes(), "", "  "); err != nil {
			t.Fatalf("Indent rejected a compact document: %v", err)
		}
		if got := indentJSON(nil, compact.Bytes()); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("indentJSON(%q):\n%s\nwant:\n%s", compact.Bytes(), got, want.Bytes())
		}
	})
}

// TestWriteJSONMatchesMarshalIndent: writeJSON's bytes are
// json.MarshalIndent's plus a newline, through a reused pooled buffer
// and through one too large to go back to the pool.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	big := map[string]any{"blob": strings.Repeat("<x> ", maxPooledJSON/4), "n": []float64{1e-7, 2.5, 1e21}}
	for i, v := range []any{
		errorResponse{Error: ErrorBody{Code: CodeBadRequest, Message: "a \"quoted\" \\ message <b>\u2028"}},
		SuitesResponse{Ops: 7},
		ModelStats{Cached: 1},
		big,
		ParamsResponse{Params: []ParamInfo{{Name: "rob", Doc: "ROB entries"}}},
	} {
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusTeapot, v)
		if w.Code != http.StatusTeapot || w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("value %d: status %d, content type %q", i, w.Code, w.Header().Get("Content-Type"))
		}
		if got := w.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
			t.Errorf("value %d: writeJSON differs from MarshalIndent (%d vs %d bytes)", i, len(got), len(want)+1)
		}
	}
	// An unencodable value answers 500 in the JSON error envelope. A
	// predict response holding a NaN gets the same bytes through its
	// AppendJSON (the pointer) as through encoding/json (the value, whose
	// method set lacks AppendJSON).
	nan := suiteResponse()
	nan.Workloads[3].Stack[2].CPI = math.NaN()
	var bodies [][]byte
	for i, v := range []any{func() {}, nan, *nan} {
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusOK, v)
		var env errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || w.Code != http.StatusInternalServerError ||
			w.Header().Get("Content-Type") != "application/json" || env.Error.Code != CodeInternal {
			t.Errorf("unencodable value %d: status %d, content type %q, body %s", i, w.Code, w.Header().Get("Content-Type"), w.Body.Bytes())
		}
		bodies = append(bodies, w.Body.Bytes())
	}
	if !bytes.Equal(bodies[1], bodies[2]) {
		t.Errorf("a NaN predict answered\n%s\nthrough AppendJSON and\n%s\nthrough encoding/json", bodies[1], bodies[2])
	}
}
