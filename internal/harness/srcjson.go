package harness

// JSON codec for compiler.Source trees. The IR's Node interface cannot
// round-trip through encoding/json directly, so every node is wrapped
// in a kind-tagged envelope; all leaf types (isa.Inst, compiler.Cond,
// profiles) are plain exported structs and marshal natively. The codec
// is what makes repro files self-contained: a minimized program is
// replayed from its JSON form, not regenerated from the seed, so a
// repro survives generator changes.

import (
	"encoding/json"
	"fmt"

	"wishbranch/internal/compiler"
	"wishbranch/internal/isa"
)

type jsonNode struct {
	Kind string `json:"kind"` // straight | if | dowhile | while | call

	Insts []isa.Inst `json:"insts,omitempty"` // straight

	Cond      *compiler.Cond   `json:"cond,omitempty"` // if, dowhile, while
	Then      []jsonNode       `json:"then,omitempty"` // if
	Else      []jsonNode       `json:"else,omitempty"` // if
	Body      []jsonNode       `json:"body,omitempty"` // dowhile, while
	Prof      compiler.Profile `json:"prof,omitempty"` // if
	NoConvert bool             `json:"noconvert,omitempty"`

	Name string `json:"name,omitempty"` // call
}

type jsonSub struct {
	Name string     `json:"name"`
	Body []jsonNode `json:"body"`
}

type jsonSource struct {
	Name string     `json:"name"`
	Body []jsonNode `json:"body"`
	Subs []jsonSub  `json:"subs,omitempty"`
}

func encodeNodes(nodes []compiler.Node) []jsonNode {
	out := make([]jsonNode, 0, len(nodes))
	for _, n := range nodes {
		switch t := n.(type) {
		case compiler.Straight:
			out = append(out, jsonNode{Kind: "straight", Insts: t.Insts})
		case compiler.If:
			c := t.Cond
			out = append(out, jsonNode{Kind: "if", Cond: &c,
				Then: encodeNodes(t.Then), Else: encodeNodes(t.Else),
				Prof: t.Prof, NoConvert: t.NoConvert})
		case compiler.DoWhile:
			c := t.Cond
			out = append(out, jsonNode{Kind: "dowhile", Cond: &c,
				Body: encodeNodes(t.Body), NoConvert: t.NoConvert})
		case compiler.While:
			c := t.Cond
			out = append(out, jsonNode{Kind: "while", Cond: &c,
				Body: encodeNodes(t.Body), NoConvert: t.NoConvert})
		case compiler.Call:
			out = append(out, jsonNode{Kind: "call", Name: t.Name})
		default:
			panic(fmt.Sprintf("harness: unknown node type %T", n))
		}
	}
	return out
}

func decodeNodes(nodes []jsonNode) ([]compiler.Node, error) {
	var out []compiler.Node
	for i, n := range nodes {
		switch n.Kind {
		case "straight":
			out = append(out, compiler.Straight{Insts: n.Insts})
		case "if":
			if n.Cond == nil {
				return nil, fmt.Errorf("harness: node %d: if without cond", i)
			}
			th, err := decodeNodes(n.Then)
			if err != nil {
				return nil, err
			}
			el, err := decodeNodes(n.Else)
			if err != nil {
				return nil, err
			}
			out = append(out, compiler.If{Cond: *n.Cond, Then: th, Else: el,
				Prof: n.Prof, NoConvert: n.NoConvert})
		case "dowhile", "while":
			if n.Cond == nil {
				return nil, fmt.Errorf("harness: node %d: %s without cond", i, n.Kind)
			}
			body, err := decodeNodes(n.Body)
			if err != nil {
				return nil, err
			}
			if n.Kind == "dowhile" {
				out = append(out, compiler.DoWhile{Body: body, Cond: *n.Cond, NoConvert: n.NoConvert})
			} else {
				out = append(out, compiler.While{Body: body, Cond: *n.Cond, NoConvert: n.NoConvert})
			}
		case "call":
			if n.Name == "" {
				return nil, fmt.Errorf("harness: node %d: call without name", i)
			}
			out = append(out, compiler.Call{Name: n.Name})
		default:
			return nil, fmt.Errorf("harness: node %d: unknown kind %q", i, n.Kind)
		}
	}
	return out, nil
}

func encodeSource(src *compiler.Source) *jsonSource {
	js := &jsonSource{Name: src.Name, Body: encodeNodes(src.Body)}
	for _, sub := range src.Subs {
		js.Subs = append(js.Subs, jsonSub{Name: sub.Name, Body: encodeNodes(sub.Body)})
	}
	return js
}

func decodeSource(js *jsonSource) (*compiler.Source, error) {
	body, err := decodeNodes(js.Body)
	if err != nil {
		return nil, err
	}
	src := &compiler.Source{Name: js.Name, Body: body}
	for _, sub := range js.Subs {
		sb, err := decodeNodes(sub.Body)
		if err != nil {
			return nil, fmt.Errorf("harness: sub %s: %w", sub.Name, err)
		}
		src.Subs = append(src.Subs, compiler.Subroutine{Name: sub.Name, Body: sb})
	}
	return src, nil
}

// MarshalSource renders src as self-contained kind-tagged JSON.
func MarshalSource(src *compiler.Source) ([]byte, error) {
	return json.MarshalIndent(encodeSource(src), "", "  ")
}

// UnmarshalSource parses the output of MarshalSource.
func UnmarshalSource(data []byte) (*compiler.Source, error) {
	var js jsonSource
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("harness: source decode: %w", err)
	}
	return decodeSource(&js)
}
