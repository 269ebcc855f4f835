package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/dataset"
)

// The oracle: every reply the benchmark receives is compared with a
// reference computed locally, in setup, by the same public kernels on an
// identically built model. A mismatch fails the op.

// prediction is the local reference for one scored block.
type prediction struct {
	labels []int
	dists  [][]float64
}

func predict(c classify.Classifier, d *dataset.Dataset) (prediction, error) {
	labels, dists, err := classify.PredictBatch(c, d)
	return prediction{labels, dists}, err
}

// trainLocal trains the named classifier with default options, as the
// services do for a request without an options part.
func trainLocal(alg string, d *dataset.Dataset) (classify.Classifier, error) {
	c, err := classify.New(alg)
	if err != nil {
		return nil, err
	}
	if err := classify.TrainWith(context.Background(), c, d); err != nil {
		return nil, err
	}
	return c, nil
}

// sameFloat is bit equality, with every NaN (the missing-value marker)
// equal to every other.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkLabels compares a classifyBatch reply with the reference: every
// label index and every distribution entry, bit for bit.
func checkLabels(got []core.Label, want prediction) error {
	if len(got) != len(want.labels) {
		return fmt.Errorf("oracle: %d labels, want %d", len(got), len(want.labels))
	}
	for i, l := range got {
		if l.Index != want.labels[i] {
			return fmt.Errorf("oracle: row %d label %d, want %d", i, l.Index, want.labels[i])
		}
		if len(l.Distribution) != len(want.dists[i]) {
			return fmt.Errorf("oracle: row %d has %d classes, want %d", i, len(l.Distribution), len(want.dists[i]))
		}
		for c, p := range l.Distribution {
			if !sameFloat(p, want.dists[i][c]) {
				return fmt.Errorf("oracle: row %d class %d p=%v, want %v", i, c, p, want.dists[i][c])
			}
		}
	}
	return nil
}

// checkNames compares textual labels (the session classify reply).
func checkNames(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %d labels, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("oracle: row %d label %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// checkDataset compares a returned block with the reference: schema,
// class index and every cell.
func checkDataset(got, want *dataset.Dataset) error {
	if got.NumAttributes() != want.NumAttributes() || got.NumInstances() != want.NumInstances() {
		return fmt.Errorf("oracle: block %dx%d, want %dx%d", got.NumInstances(), got.NumAttributes(),
			want.NumInstances(), want.NumAttributes())
	}
	if got.ClassIndex != want.ClassIndex {
		return fmt.Errorf("oracle: class index %d, want %d", got.ClassIndex, want.ClassIndex)
	}
	for j, a := range got.Attrs {
		if a.Name != want.Attrs[j].Name || a.Kind != want.Attrs[j].Kind {
			return fmt.Errorf("oracle: attribute %d is %s, want %s", j, a.Name, want.Attrs[j].Name)
		}
	}
	for i, in := range got.Instances {
		for j, v := range in.Values {
			if !sameFloat(v, want.Instances[i].Values[j]) {
				return fmt.Errorf("oracle: cell (%d,%d) = %v, want %v", i, j, v, want.Instances[i].Values[j])
			}
		}
	}
	return nil
}

func checkInts(what string, got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %d %s, want %d", len(got), what, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("oracle: %s[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}

func checkFloats(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %d %s, want %d", len(got), what, len(want))
	}
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			return fmt.Errorf("oracle: %s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// checkTree checks the case-study viewer output: exactly the locally
// built J48 tree, whose root splits on node-caps (the paper's Figure 4).
func checkTree(seen []string, want string) error {
	if len(seen) != 1 {
		return fmt.Errorf("oracle: viewer saw %d models, want 1", len(seen))
	}
	if root := treeRoot(want); !strings.HasPrefix(root, "node-caps ") {
		return fmt.Errorf("oracle: reference tree is rooted at %q, not node-caps", root)
	}
	if seen[0] != want {
		return fmt.Errorf("oracle: viewer tree differs from the local J48 tree")
	}
	return nil
}

// treeRoot returns the first split line of a J48 tree text, skipping
// the "J48 pruned tree" banner and its underline.
func treeRoot(tree string) string {
	for _, line := range strings.Split(tree, "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "J48") && !strings.HasPrefix(line, "---") {
			return line
		}
	}
	return ""
}

// tokenKey extracts the model-store key from a session token
// ("dms1." + base64url JSON carrying the key).
func tokenKey(token string) (string, error) {
	b, err := base64.RawURLEncoding.DecodeString(strings.TrimPrefix(token, "dms1."))
	if err != nil || !strings.HasPrefix(token, "dms1.") {
		return "", fmt.Errorf("oracle: malformed session token")
	}
	var t struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(b, &t); err != nil || t.Key == "" {
		return "", fmt.Errorf("oracle: session token carries no key")
	}
	return t.Key, nil
}

// checkToken checks that a fresh session was filed under the content key
// the reference derives for the same algorithm, dataset and class.
func checkToken(token, wantKey string) error {
	k, err := tokenKey(token)
	if err != nil {
		return err
	}
	if k != wantKey {
		return fmt.Errorf("oracle: session key %s, want %s", k, wantKey)
	}
	return nil
}
