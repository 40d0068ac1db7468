package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"wishbranch/internal/cpu"
)

// wireResult builds a distinctive result for codec tests, cheap enough
// to stamp out in bulk.
func wireResult(seed uint64) *cpu.Result {
	return &cpu.Result{
		Cycles:       1000 + seed,
		RetiredUops:  2000 + seed,
		CondBranches: 17 * seed,
		Halted:       true,
	}
}

func TestBinaryRunResponseRoundTrip(t *testing.T) {
	want := RunResponse{Key: "v3|bench=gzip|whatever", Result: wireResult(7)}
	data := AppendRunResponse(nil, want.Key, want.Result)
	var got RunResponse
	if err := DecodeRunResponse(data, &got); err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("round trip differs:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
}

func TestBinaryRunResponseCorruption(t *testing.T) {
	good := AppendRunResponse(nil, "key", wireResult(1))
	cases := map[string][]byte{
		"empty":             {},
		"short length":      good[:2],
		"truncated key":     good[:5],
		"truncated result":  good[:len(good)-3],
		"trailing garbage":  append(append([]byte{}, good...), 0xee),
		"absurd key length": {0xff, 0xff, 0xff, 0xff, 'k'},
	}
	for name, data := range cases {
		var resp RunResponse
		err := DecodeRunResponse(data, &resp)
		if !errors.Is(err, ErrBinWire) {
			t.Errorf("%s: err = %v, want ErrBinWire", name, err)
		}
	}
}

func TestBinaryCampaignItemRoundTrip(t *testing.T) {
	items := []CampaignItem{
		{Key: "ok-key", Result: wireResult(3)},
		{Key: "failed-key", Err: "lab: simulated explosion"},
	}
	for _, want := range items {
		data := AppendCampaignItem(nil, &want)
		got, err := DecodeCampaignItem(data)
		if err != nil {
			t.Fatalf("%s: %v", want.Key, err)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("%s round trip differs:\nwant %s\ngot  %s", want.Key, wantJSON, gotJSON)
		}
	}
}

func TestBinaryCampaignItemCorruption(t *testing.T) {
	ok := AppendCampaignItem(nil, &CampaignItem{Key: "k", Result: wireResult(2)})
	errItem := AppendCampaignItem(nil, &CampaignItem{Key: "k", Err: "boom"})
	badKind := append([]byte{}, ok...)
	badKind[4+1] = 9 // kind byte right after the 1-byte key
	cases := map[string][]byte{
		"empty":                {},
		"missing kind":         ok[:5],
		"truncated result":     ok[:len(ok)-1],
		"truncated error":      errItem[:len(errItem)-2],
		"trailing after error": append(append([]byte{}, errItem...), 0),
		"unknown kind":         badKind,
		"empty error string":   {1, 0, 0, 0, 'k', 1, 0, 0, 0, 0},
	}
	for name, data := range cases {
		if _, err := DecodeCampaignItem(data); !errors.Is(err, ErrBinWire) {
			t.Errorf("%s: err = %v, want ErrBinWire", name, err)
		}
	}
}

// TestCampaignStreamReassemblesRequestOrder: frames written in any
// completion order come back in request order.
func TestCampaignStreamReassemblesRequestOrder(t *testing.T) {
	const n = 5
	items := make([]CampaignItem, n)
	for i := range items {
		items[i] = CampaignItem{Key: fmt.Sprintf("key-%d", i), Result: wireResult(uint64(i))}
	}
	items[3] = CampaignItem{Key: "key-3", Err: "item 3 failed"}

	completion := []int{3, 0, 4, 1, 2}
	var wire []byte
	for _, i := range completion {
		wire = AppendStreamItemFrame(wire, i, &items[i])
	}
	wire = AppendStreamEndFrame(wire, n)

	got, err := ReadCampaignStream(bytes.NewReader(wire), n)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(items)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("merged stream differs from request order:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
}

func TestCampaignStreamMalformed(t *testing.T) {
	item := CampaignItem{Key: "k", Result: wireResult(9)}
	frame := AppendStreamItemFrame(nil, 0, &item)
	end := func(count int) []byte { return AppendStreamEndFrame(nil, count) }
	join := func(bs ...[]byte) []byte { return bytes.Join(bs, nil) }

	cases := map[string][]byte{
		"empty":              {},
		"cut mid header":     frame[:3],
		"cut mid body":       frame[:len(frame)-4],
		"no terminal frame":  frame,
		"eof after items":    frame, // same bytes; named for the contract
		"terminal count low": join(frame, end(0)),
		"missing item":       end(1),
		"index out of range": join(AppendStreamItemFrame(nil, 5, &item), end(1)),
		"duplicate index":    join(frame, frame, end(1)),
		"unknown tag":        {0x51, 0, 0, 0, 0},
		"garbled item body":  join([]byte{StreamItemTag, 0, 0, 0, 0, 3, 0, 0, 0, 1, 2, 3}, end(1)),
	}
	for name, wire := range cases {
		if _, err := ReadCampaignStream(bytes.NewReader(wire), 1); !errors.Is(err, ErrBinWire) {
			t.Errorf("%s: err = %v, want ErrBinWire", name, err)
		}
	}
}

// FuzzBinWire drives the client-side binary decoders with arbitrary
// bytes: DecodeRunResponse, DecodeCampaignItem, and ReadCampaignStream
// expecting n%4 items. Each must fail with an error wrapping
// ErrBinWire, or accept a value that re-encodes to the input byte for
// byte (a response or an item) or holds exactly the expected number of
// items (a stream).
func FuzzBinWire(f *testing.F) {
	ok := CampaignItem{Key: "key-0", Result: wireResult(1)}
	failed := CampaignItem{Key: "key-1", Err: "item 1 failed"}
	stream := AppendStreamItemFrame(nil, 1, &failed)
	stream = AppendStreamItemFrame(stream, 0, &ok)
	f.Add(uint8(0), AppendRunResponse(nil, "v3|bench=gzip", wireResult(7)))
	f.Add(uint8(1), AppendCampaignItem(nil, &ok))
	f.Add(uint8(1), AppendCampaignItem(nil, &failed))
	f.Add(uint8(2), AppendStreamEndFrame(stream, 2))
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		wireErr := func(what string, err error) {
			if !errors.Is(err, ErrBinWire) {
				t.Fatalf("%s: error %v does not wrap ErrBinWire", what, err)
			}
		}
		var resp RunResponse
		if err := DecodeRunResponse(data, &resp); err != nil {
			wireErr("run response", err)
		} else if re := AppendRunResponse(nil, resp.Key, resp.Result); !bytes.Equal(re, data) {
			t.Fatalf("accepted run response does not re-encode to itself:\nin:  %x\nout: %x", data, re)
		}
		if item, err := DecodeCampaignItem(data); err != nil {
			wireErr("campaign item", err)
		} else if re := AppendCampaignItem(nil, &item); !bytes.Equal(re, data) {
			t.Fatalf("accepted campaign item does not re-encode to itself:\nin:  %x\nout: %x", data, re)
		}
		want := int(n % 4)
		if items, err := ReadCampaignStream(bytes.NewReader(data), want); err != nil {
			wireErr("campaign stream", err)
		} else if len(items) != want {
			t.Fatalf("accepted stream holds %d items, want %d", len(items), want)
		}
	})
}
