package api

// The binary halves of the wire API. Requests stay JSON — they are
// small and carry the full machine configuration, where JSON's
// self-description earns its cost — but responses are dominated by
// cpu.Result payloads, so the server offers two negotiated encodings
// on top of the JSON default:
//
//   - BinaryContentType: a RunResponse as one length-delimited binary
//     record (key + cpu result codec frame). Chosen when the client's
//     Accept header lists it.
//   - StreamContentType: a campaign as a stream of length-prefixed
//     item frames, one per completed simulation, emitted in completion
//     order and carrying the item's request index — the client
//     reassembles request order positionally, so the merged result is
//     byte-identical to the buffered JSON response. A terminal count
//     frame authenticates completeness: a stream that ends without it
//     was cut mid-flight and the client treats the exchange as a
//     retryable transport failure.
//
// Negotiation is strictly additive: a client that sends no Accept (or
// an old one that has never heard of these types) gets the JSON wire
// unchanged, and a new client against an old server sees a JSON
// content type and falls back. Batch-level rejections (429/503/4xx)
// are always pre-stream JSON with the usual status code — once the
// first stream byte is written the status is committed, so anything
// that can reject the whole batch happens before streaming starts.
//
// Stream frame layout (all integers little-endian):
//
//	'I' u32 index u32 len  <len bytes: binary CampaignItem>
//	'E' u32 count          terminal frame; count = items streamed
//
// Binary CampaignItem layout:
//
//	u32 keyLen  <key bytes>  u8 kind  payload
//	  kind 0: payload = cpu.Result codec frame (the item succeeded)
//	  kind 1: payload = u32 errLen <error string> (the item failed)
//
// Binary RunResponse layout:
//
//	u32 keyLen  <key bytes>  cpu.Result codec frame

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"wishbranch/internal/cpu"
)

// Negotiable response content types. These names pin the layout: a
// future incompatible frame format becomes a new media type (or a
// bumped Version), and old clients keep negotiating the one they
// understand.
const (
	BinaryContentType = "application/x-wishbranch-result"
	StreamContentType = "application/x-wishbranch-stream"
)

// ErrBinWire is the base error every malformed binary response wraps.
// Client-side it is always retryable — a garbled frame means the
// exchange died, not that the request was wrong.
var ErrBinWire = errors.New("api: malformed binary response")

// MaxWireStringBytes bounds any length-prefixed string or item read
// from the wire, so a corrupt length prefix cannot ask for gigabytes.
const MaxWireStringBytes = 16 << 20

// AcceptsType reports whether the request's Accept header lists ct.
// The match is on the bare media type — parameters (q-values etc.) are
// ignored, because the server offers exactly one alternative per
// endpoint and the client either knows it or does not.
func AcceptsType(r *http.Request, ct string) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, _, _ := strings.Cut(part, ";")
		if strings.TrimSpace(mt) == ct {
			return true
		}
	}
	return false
}

// IsContentType reports whether an HTTP Content-Type header value
// names ct, ignoring parameters.
func IsContentType(header, ct string) bool {
	mt, _, _ := strings.Cut(header, ";")
	return strings.TrimSpace(mt) == ct
}

// WriteJSON writes v as the response body with the headers every
// endpoint of the wire API promises: an explicit JSON content type
// (errors included — a client must never have to sniff a rejection)
// and nosniff so nothing downstream second-guesses it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about a dead client
}

// MaxRequestBytes bounds every request body a server decodes.
const MaxRequestBytes = 8 << 20

// DecodeRequest reads at most MaxRequestBytes of r's JSON body into
// dst and checks the wire schema the body carried, which decoding
// stored through schema (&req.Schema). A non-nil error is the reason
// for a 400; each server prefixes it with its own name.
func DecodeRequest(w http.ResponseWriter, r *http.Request, dst any, schema *int) error {
	body := http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	if err := json.NewDecoder(body).Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if *schema != Version {
		return fmt.Errorf("request schema %d, want %d (client/server version skew)", *schema, Version)
	}
	return nil
}

// AppendRunResponse serializes a binary RunResponse.
func AppendRunResponse(dst []byte, key string, r *cpu.Result) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = append(dst, key...)
	return cpu.AppendResult(dst, r)
}

// DecodeRunResponse parses a binary RunResponse, which must consume
// data exactly.
func DecodeRunResponse(data []byte, resp *RunResponse) error {
	key, rest, err := cutWireString(data)
	if err != nil {
		return fmt.Errorf("%w: run response key: %v", ErrBinWire, err)
	}
	var res cpu.Result
	n, err := cpu.DecodeResult(rest, &res)
	if err != nil {
		return fmt.Errorf("%w: run response result: %v", ErrBinWire, err)
	}
	if n != len(rest) {
		return fmt.Errorf("%w: %d trailing bytes after run response", ErrBinWire, len(rest)-n)
	}
	resp.Key = key
	resp.Result = &res
	return nil
}

// AppendCampaignItem serializes one binary campaign item.
func AppendCampaignItem(dst []byte, item *CampaignItem) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(item.Key)))
	dst = append(dst, item.Key...)
	if item.Err != "" {
		dst = append(dst, 1)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(item.Err)))
		return append(dst, item.Err...)
	}
	dst = append(dst, 0)
	return cpu.AppendResult(dst, item.Result)
}

// DecodeCampaignItem parses one binary campaign item, which must
// consume data exactly.
func DecodeCampaignItem(data []byte) (CampaignItem, error) {
	var item CampaignItem
	key, rest, err := cutWireString(data)
	if err != nil {
		return item, fmt.Errorf("%w: item key: %v", ErrBinWire, err)
	}
	item.Key = key
	if len(rest) < 1 {
		return item, fmt.Errorf("%w: item missing kind byte", ErrBinWire)
	}
	kind, rest := rest[0], rest[1:]
	switch kind {
	case 0:
		var res cpu.Result
		n, err := cpu.DecodeResult(rest, &res)
		if err != nil {
			return item, fmt.Errorf("%w: item result: %v", ErrBinWire, err)
		}
		if n != len(rest) {
			return item, fmt.Errorf("%w: %d trailing bytes after item result", ErrBinWire, len(rest)-n)
		}
		item.Result = &res
	case 1:
		msg, tail, err := cutWireString(rest)
		if err != nil {
			return item, fmt.Errorf("%w: item error: %v", ErrBinWire, err)
		}
		if len(tail) != 0 {
			return item, fmt.Errorf("%w: %d trailing bytes after item error", ErrBinWire, len(tail))
		}
		if msg == "" {
			return item, fmt.Errorf("%w: item carries an empty error", ErrBinWire)
		}
		item.Err = msg
	default:
		return item, fmt.Errorf("%w: unknown item kind %d", ErrBinWire, kind)
	}
	return item, nil
}

// cutWireString splits a u32-length-prefixed string off data.
func cutWireString(data []byte) (s string, rest []byte, err error) {
	if len(data) < 4 {
		return "", nil, fmt.Errorf("truncated length prefix (%d bytes)", len(data))
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n > MaxWireStringBytes {
		return "", nil, fmt.Errorf("length %d exceeds the %d-byte wire bound", n, MaxWireStringBytes)
	}
	if len(data) < 4+n {
		return "", nil, fmt.Errorf("length %d with only %d bytes left", n, len(data)-4)
	}
	return string(data[4 : 4+n]), data[4+n:], nil
}

// Stream frame tags.
const (
	StreamItemTag = 'I'
	StreamEndTag  = 'E'
)

// AppendStreamItemFrame wraps one encoded campaign item in its stream
// frame: tag, original request index, length, body.
func AppendStreamItemFrame(dst []byte, index int, item *CampaignItem) []byte {
	dst = append(dst, StreamItemTag)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(index))
	lenAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	dst = AppendCampaignItem(dst, item)
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

// AppendStreamEndFrame writes the terminal completeness frame.
func AppendStreamEndFrame(dst []byte, count int) []byte {
	dst = append(dst, StreamEndTag)
	return binary.LittleEndian.AppendUint32(dst, uint32(count))
}

// streamChunk is how much of an item's claimed size ReadCampaignStream
// allocates before reading any of it. A larger item's buffer doubles as
// its bytes arrive, so what a stream makes the client allocate is a
// small multiple of what it sends plus streamChunk, whatever sizes it
// claims.
const streamChunk = 64 << 10

// readItemBody reads an item body of the claimed size, growing the
// buffer only as bytes arrive. A body up to streamChunk bytes is one
// allocation.
func readItemBody(r io.Reader, size int) ([]byte, error) {
	body := make([]byte, min(size, streamChunk))
	for n := 0; ; {
		k, err := io.ReadFull(r, body[n:])
		if n += k; err != nil {
			return nil, err
		}
		if n == size {
			return body, nil
		}
		body = append(body, make([]byte, min(size-n, n))...)
	}
}

// ReadCampaignStream consumes a campaign stream of exactly n items,
// returning them in request order. Every malformed condition — unknown tag,
// out-of-range or duplicate index, a body that fails to parse, a
// terminal count that disagrees, EOF before the terminal frame — wraps
// ErrBinWire: the response is unusable and the caller retries.
func ReadCampaignStream(r io.Reader, n int) ([]CampaignItem, error) {
	items := make([]CampaignItem, n)
	seen := make([]bool, n)
	got := 0
	var hdr [5]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("%w: stream cut after %d/%d items: %v", ErrBinWire, got, n, err)
		}
		tag, arg := hdr[0], int(binary.LittleEndian.Uint32(hdr[1:]))
		switch tag {
		case StreamEndTag:
			if arg != n || got != n {
				return nil, fmt.Errorf("%w: stream ended with %d/%d items (terminal count %d)",
					ErrBinWire, got, n, arg)
			}
			return items, nil
		case StreamItemTag:
			if arg < 0 || arg >= n {
				return nil, fmt.Errorf("%w: stream item index %d out of range [0,%d)", ErrBinWire, arg, n)
			}
			if seen[arg] {
				return nil, fmt.Errorf("%w: duplicate stream item index %d", ErrBinWire, arg)
			}
			var lenBuf [4]byte
			if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
				return nil, fmt.Errorf("%w: stream cut in item %d header: %v", ErrBinWire, arg, err)
			}
			size := int(binary.LittleEndian.Uint32(lenBuf[:]))
			if size > MaxWireStringBytes {
				return nil, fmt.Errorf("%w: stream item %d claims %d bytes", ErrBinWire, arg, size)
			}
			body, err := readItemBody(r, size)
			if err != nil {
				return nil, fmt.Errorf("%w: stream cut in item %d body: %v", ErrBinWire, arg, err)
			}
			item, err := DecodeCampaignItem(body)
			if err != nil {
				return nil, fmt.Errorf("stream item %d: %w", arg, err)
			}
			items[arg] = item
			seen[arg] = true
			got++
		default:
			return nil, fmt.Errorf("%w: unknown stream frame tag %#x", ErrBinWire, tag)
		}
	}
}
