package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wishbranch/internal/lab"
)

// The v1 fixture corpus: wire bytes committed under testdata/v1/ and
// replayed through the current decoders on every CI run (the
// wire-compat job). Unlike the goldens — which pin what the current
// code *emits* — the corpus pins what the current code can *read*:
// once a v1 worker or client exists, these exact bytes are in flight,
// and a decoder change that rejects them strands deployed processes
// mid-campaign. Regenerating the corpus (-update) is only legitimate
// together with a Version bump.
//
// corpusExpect records what each fixture must decode to. KeySig is
// the spec's cache key with the lab schema-version prefix stripped:
// a deliberate lab.SchemaVersion bump changes every key's "v<n>|"
// prefix without touching wire decoding, and must not invalidate the
// corpus — while any dropped or misread spec field still does.
type corpusExpect struct {
	RunRequestKeySig  string   `json:"run_request_key_sig"`
	CampaignKeySigs   []string `json:"campaign_key_sigs"`
	RunResponseKey    string   `json:"run_response_key"`
	RunResponseCycles uint64   `json:"run_response_cycles"`
	ItemResultKey     string   `json:"item_result_key"`
	ItemResultCycles  uint64   `json:"item_result_cycles"`
	ItemErrorKey      string   `json:"item_error_key"`
	ItemError         string   `json:"item_error"`
	StreamKeys        []string `json:"stream_keys"`
}

func keySig(key string) string {
	if _, rest, ok := strings.Cut(key, "|"); ok {
		return rest
	}
	return key
}

func corpusDir() string { return filepath.Join("testdata", "v1") }

// writeV1Corpus regenerates the fixture corpus from the current
// encoders. Only run with -update, and only alongside a Version bump.
func writeV1Corpus(t *testing.T) {
	t.Helper()
	dir := corpusDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	res := wireResult(3)
	exp := corpusExpect{
		RunRequestKeySig:  keySig(spec.Key()),
		CampaignKeySigs:   []string{keySig(spec.Key())},
		RunResponseKey:    "key-1",
		RunResponseCycles: res.Cycles,
		ItemResultKey:     "key-1",
		ItemResultCycles:  res.Cycles,
		ItemErrorKey:      "key-2",
		ItemError:         "lab: boom",
		StreamKeys:        []string{"key-1", "key-2"},
	}
	write := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustJSON := func(v any) []byte {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(data, '\n')
	}
	write("run_request.json", mustJSON(RunRequest{Schema: Version, Spec: spec, TimeoutMs: 30000}))
	write("campaign_request.json", mustJSON(CampaignRequest{Schema: Version, Specs: []lab.Spec{spec}}))
	write("run_response.bin", AppendRunResponse(nil, "key-1", res))
	write("campaign_item_result.bin", AppendCampaignItem(nil, &CampaignItem{Key: "key-1", Result: res}))
	write("campaign_item_error.bin", AppendCampaignItem(nil, &CampaignItem{Key: "key-2", Err: "lab: boom"}))
	var stream []byte
	stream = AppendStreamItemFrame(stream, 1, &CampaignItem{Key: "key-2", Err: "lab: boom"})
	stream = AppendStreamItemFrame(stream, 0, &CampaignItem{Key: "key-1", Result: res})
	stream = AppendStreamEndFrame(stream, 2)
	write("campaign_stream.bin", stream)
	write("expect.json", mustJSON(exp))
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(corpusDir(), name))
	if err != nil {
		t.Fatalf("%v (regenerate the corpus with -update — only alongside a wire Version bump)", err)
	}
	return data
}

// TestV1CorpusDecodes replays the committed v1 corpus through every
// decoder the servers and clients use.
func TestV1CorpusDecodes(t *testing.T) {
	if *update {
		writeV1Corpus(t)
	}
	var exp corpusExpect
	if err := json.Unmarshal(readFixture(t, "expect.json"), &exp); err != nil {
		t.Fatal(err)
	}

	t.Run("run_request.json", func(t *testing.T) {
		var req RunRequest
		if err := json.Unmarshal(readFixture(t, "run_request.json"), &req); err != nil {
			t.Fatal(err)
		}
		if req.Schema != Version {
			t.Fatalf("schema %d, want %d", req.Schema, Version)
		}
		if got := keySig(req.Spec.Key()); got != exp.RunRequestKeySig {
			t.Errorf("decoded spec key drifted:\ngot  %s\nwant %s", got, exp.RunRequestKeySig)
		}
		if err := req.Spec.Validate(); err != nil {
			t.Errorf("decoded spec no longer validates: %v", err)
		}
	})

	t.Run("campaign_request.json", func(t *testing.T) {
		var req CampaignRequest
		if err := json.Unmarshal(readFixture(t, "campaign_request.json"), &req); err != nil {
			t.Fatal(err)
		}
		if len(req.Specs) != len(exp.CampaignKeySigs) {
			t.Fatalf("%d specs, want %d", len(req.Specs), len(exp.CampaignKeySigs))
		}
		for i, s := range req.Specs {
			if got := keySig(s.Key()); got != exp.CampaignKeySigs[i] {
				t.Errorf("spec %d key drifted:\ngot  %s\nwant %s", i, got, exp.CampaignKeySigs[i])
			}
		}
	})

	t.Run("run_response.bin", func(t *testing.T) {
		var resp RunResponse
		if err := DecodeRunResponse(readFixture(t, "run_response.bin"), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Key != exp.RunResponseKey || resp.Result == nil || resp.Result.Cycles != exp.RunResponseCycles {
			t.Errorf("decoded %q/%+v, want key %q cycles %d", resp.Key, resp.Result, exp.RunResponseKey, exp.RunResponseCycles)
		}
	})

	t.Run("campaign_item_result.bin", func(t *testing.T) {
		item, err := DecodeCampaignItem(readFixture(t, "campaign_item_result.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if item.Key != exp.ItemResultKey || item.Err != "" || item.Result == nil || item.Result.Cycles != exp.ItemResultCycles {
			t.Errorf("decoded %+v, want key %q cycles %d", item, exp.ItemResultKey, exp.ItemResultCycles)
		}
	})

	t.Run("campaign_item_error.bin", func(t *testing.T) {
		item, err := DecodeCampaignItem(readFixture(t, "campaign_item_error.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if item.Key != exp.ItemErrorKey || item.Err != exp.ItemError || item.Result != nil {
			t.Errorf("decoded %+v, want key %q err %q", item, exp.ItemErrorKey, exp.ItemError)
		}
	})

	t.Run("campaign_stream.bin", func(t *testing.T) {
		items, err := ReadCampaignStream(bytes.NewReader(readFixture(t, "campaign_stream.bin")), len(exp.StreamKeys))
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, it := range items {
			keys = append(keys, it.Key)
		}
		if fmt.Sprint(keys) != fmt.Sprint(exp.StreamKeys) {
			t.Errorf("stream reassembled %v, want %v", keys, exp.StreamKeys)
		}
	})
}
