package api

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"wishbranch/internal/cpu"
	"wishbranch/internal/isa"
	"wishbranch/internal/prog"
)

// TestDecodeRequest pins the one request decoder both servers use: a
// well-formed body of the current schema decodes, and a malformed
// body, a foreign schema, and a body past MaxRequestBytes are each
// refused with a reason.
func TestDecodeRequest(t *testing.T) {
	good, err := json.Marshal(RunRequest{Schema: Version, Spec: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := json.Marshal(RunRequest{Schema: Version + 1, Spec: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	oversized := `{"schema":1,"spec":{"bench":"` + strings.Repeat("x", MaxRequestBytes) + `"}}`
	cases := []struct {
		name, body, wantErr string
	}{
		{"current schema", string(good), ""},
		{"malformed", `{"schema":`, "bad request body"},
		{"schema skew", string(skewed), "request schema 2, want 1"},
		{"oversized", oversized, "request body too large"},
	}
	for _, tc := range cases {
		r := httptest.NewRequest("POST", "/v1/run", strings.NewReader(tc.body))
		var req RunRequest
		err := DecodeRequest(httptest.NewRecorder(), r, &req, &req.Schema)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr == "" && req.Spec.Key() != testSpec().Key():
			t.Errorf("%s: decoded spec key %q, want %q", tc.name, req.Spec.Key(), testSpec().Key())
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// FuzzRunRequest feeds arbitrary bodies to the /v1/run decoder and the
// validation behind it. For any body, DecodeRequest fails, or
// Spec.Validate fails, or cpu.New builds the spec's machine without
// panicking: a body that passes both checks must not be able to crash
// a server before its first simulated cycle.
func FuzzRunRequest(f *testing.F) {
	seed := readFixture(f, "run_request.json")
	f.Add(seed)
	f.Add(bytes.Replace(seed, []byte(`"BTBEntries": 4096`), []byte(`"BTBEntries": 3`), 1))
	halt := &prog.Program{Code: []isa.Inst{isa.Halt()}}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		r := httptest.NewRequest("POST", "/v1/run", bytes.NewReader(body))
		if DecodeRequest(httptest.NewRecorder(), r, &req, &req.Schema) != nil || req.Spec.Validate() != nil {
			return
		}
		if _, err := cpu.New(req.Spec.Machine, halt, nil); err != nil {
			t.Fatalf("cpu.New rejected a validated machine: %v", err)
		}
	})
}
