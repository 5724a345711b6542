// Package dataio persists streams and models: CSV serialization of labeled
// record streams (with nominal values written as their string names), JSON
// schemas, and gob persistence of trained high-order models so the offline
// build is reusable across processes.
package dataio

import (
	"bufio"
	"encoding/csv"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"highorder/internal/bayes"
	"highorder/internal/classifier"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/fault"
	"highorder/internal/tree"
)

func init() {
	// Register every concrete classifier that can appear behind the
	// classifier.Classifier interface inside a persisted model.
	gob.Register(&tree.Tree{})
	gob.Register(&bayes.Model{})
	gob.Register(&classifier.Majority{})
}

// WriteCSV writes the dataset as CSV: a header of attribute names plus
// "class", then one row per record. Nominal attribute values and class
// labels are written as their string names.
func WriteCSV(w io.Writer, d *data.Dataset) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, d.Schema.NumAttributes()+1)
	for _, a := range d.Schema.Attributes {
		header = append(header, a.Name)
	}
	header = append(header, "class")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for ri, r := range d.Records {
		for i, a := range d.Schema.Attributes {
			if a.Kind == data.Nominal {
				v := int(r.Values[i])
				if v < 0 || v >= len(a.Values) {
					return fmt.Errorf("dataio: record %d: nominal value %v out of range for %q", ri, r.Values[i], a.Name)
				}
				row[i] = a.Values[v]
			} else {
				row[i] = strconv.FormatFloat(r.Values[i], 'g', -1, 64)
			}
		}
		if r.Class < 0 || r.Class >= d.Schema.NumClasses() {
			return fmt.Errorf("dataio: record %d: class %d out of range", ri, r.Class)
		}
		row[len(row)-1] = d.Schema.Classes[r.Class]
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a CSV stream written by WriteCSV back into a dataset over
// the given schema.
func ReadCSV(r io.Reader, schema *data.Schema) (*data.Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = schema.NumAttributes() + 1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataio: reading header: %w", err)
	}
	for i, a := range schema.Attributes {
		if header[i] != a.Name {
			return nil, fmt.Errorf("dataio: header column %d is %q, schema expects %q", i, header[i], a.Name)
		}
	}
	d := data.NewDataset(schema)
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataio: line %d: %w", line, err)
		}
		rec := data.Record{Values: make([]float64, schema.NumAttributes())}
		for i, a := range schema.Attributes {
			if a.Kind == data.Nominal {
				v := a.ValueIndex(row[i])
				if v < 0 {
					return nil, fmt.Errorf("dataio: line %d: unknown value %q for attribute %q", line, row[i], a.Name)
				}
				rec.Values[i] = float64(v)
				continue
			}
			f, err := strconv.ParseFloat(row[i], 64)
			if err != nil {
				return nil, fmt.Errorf("dataio: line %d: attribute %q: %w", line, a.Name, err)
			}
			rec.Values[i] = f
		}
		cls := schema.ClassIndex(row[len(row)-1])
		if cls < 0 {
			return nil, fmt.Errorf("dataio: line %d: unknown class %q", line, row[len(row)-1])
		}
		rec.Class = cls
		d.Add(rec)
	}
	return d, nil
}

// WriteSchema serializes the schema as indented JSON.
func WriteSchema(w io.Writer, s *data.Schema) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSchema parses a JSON schema and validates it.
func ReadSchema(r io.Reader) (*data.Schema, error) {
	var s data.Schema
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("dataio: parsing schema: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Model files start with a magic-plus-version header so a stale or
// foreign file fails with a typed, actionable error instead of an opaque
// gob decode error. Files written before the header was introduced (plain
// gob streams) are still readable; LoadModel emits a warning suggesting a
// re-save.
const (
	// modelMagic prefixes every versioned model file.
	modelMagic = "homgob"
	// ModelVersion is the format version written by WriteModel. Bump it
	// when the persisted core.Model layout changes incompatibly. Version 2
	// added the unseen-branch marker (see unseenBranchN); ReadModel still
	// reads version 1, which has no markers.
	ModelVersion = 2

	// unseenBranchN is the N of the marker node that stands, in a persisted
	// tree, for a nominal branch no training record reached. In memory that
	// branch is a nil child, which Predict answers with the parent's class,
	// and gob cannot encode a nil slice element. No grown node has a
	// negative N.
	unseenBranchN = -1
)

// modelHeaderLen is the on-disk header size: the magic plus one version byte.
const modelHeaderLen = len(modelMagic) + 1

// ModelVersionError reports a model file whose header names a format
// version this build cannot read.
type ModelVersionError struct {
	// Got is the version byte found in the file; Want is ModelVersion.
	Got, Want int
}

// Error implements error.
func (e *ModelVersionError) Error() string {
	return fmt.Sprintf("dataio: model file is format version %d, this build reads versions 1 to %d — rebuild the model with homtrain", e.Got, e.Want)
}

// SaveModel persists a trained high-order model to path: a versioned
// header followed by the gob encoding.
func SaveModel(path string, m *core.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() //homlint:allow errdrop -- safety net; the success path returns f.Close() explicitly below
	if err := WriteModel(f, m); err != nil {
		return err
	}
	return f.Close()
}

// WriteModel writes the versioned header and the gob-encoded model to w.
// A tree's unseen branches are written as marker nodes; m itself is not
// modified.
func WriteModel(w io.Writer, m *core.Model) error {
	header := append([]byte(modelMagic), byte(ModelVersion))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("dataio: writing model header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(withUnseenMarkers(m)); err != nil {
		return fmt.Errorf("dataio: encoding model: %w", err)
	}
	return nil
}

// LoadModel reads a model persisted by SaveModel. Legacy files without the
// version header are still accepted; a warning goes to stderr.
func LoadModel(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //homlint:allow errdrop -- read-only file; a close error cannot corrupt anything
	m, err := ReadModel(f, os.Stderr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// ReadModel reads a model stream written by WriteModel. A stream that does
// not start with the magic is treated as a legacy unversioned gob model: it
// is decoded as before, and a one-line warning is written to warn (if
// non-nil) recommending a re-save. A stream with the magic but a different
// version fails with *ModelVersionError.
func ReadModel(r io.Reader, warn io.Writer) (*core.Model, error) {
	return ReadModelFaulted(r, warn, nil)
}

// ReadModelFaulted is ReadModel with a fault-injection hook on the byte
// stream: a non-nil injector's ModelCorrupt point may flip bytes as they
// are read, and the loader must turn any such corruption into a typed
// error (*ModelVersionError, a header error, or a wrapped gob decode
// error) — never a panic and never a silently wrong model. A nil injector
// is the production path and costs one pointer check.
func ReadModelFaulted(r io.Reader, warn io.Writer, inj *fault.Injector) (*core.Model, error) {
	br := bufio.NewReader(inj.CorruptReader(r))
	header, err := br.Peek(modelHeaderLen)
	if err == nil && string(header[:len(modelMagic)]) == modelMagic {
		if v := int(header[len(modelMagic)]); v < 1 || v > ModelVersion {
			return nil, &ModelVersionError{Got: v, Want: ModelVersion}
		}
		if _, err := br.Discard(modelHeaderLen); err != nil {
			return nil, fmt.Errorf("dataio: reading model header: %w", err)
		}
	} else {
		// Short streams fall through too: the gob decoder below produces
		// the error for genuinely truncated input.
		if warn != nil {
			fmt.Fprintf(warn, "dataio: warning: model file has no version header (pre-versioning format); re-save it with the current homtrain\n")
		}
	}
	var m core.Model
	if err := gob.NewDecoder(br).Decode(&m); err != nil {
		return nil, fmt.Errorf("dataio: decoding model: %w", err)
	}
	for _, c := range m.Concepts {
		if t, ok := c.Model.(*tree.Tree); ok {
			restoreUnseen(t.Root)
		}
	}
	return &m, nil
}

// withUnseenMarkers returns m, or, when a tree concept has unseen
// branches, a copy of m whose affected trees are copies with a marker node
// in place of each nil child.
func withUnseenMarkers(m *core.Model) *core.Model {
	out := m
	for i, c := range m.Concepts {
		t, ok := c.Model.(*tree.Tree)
		if !ok || !hasUnseen(t.Root) {
			continue
		}
		if out == m {
			cp := *m
			cp.Concepts = append([]core.Concept(nil), m.Concepts...)
			out = &cp
		}
		marked := *t
		marked.Root = markUnseen(t.Root)
		out.Concepts[i].Model = &marked
	}
	return out
}

func hasUnseen(n *tree.Node) bool {
	if n == nil {
		return false
	}
	for _, c := range n.Children {
		if c == nil || hasUnseen(c) {
			return true
		}
	}
	return false
}

// markUnseen copies the subtree at n, putting a marker node in each nil
// child's place.
func markUnseen(n *tree.Node) *tree.Node {
	cp := *n
	if n.Children != nil {
		cp.Children = make([]*tree.Node, len(n.Children))
		for i, c := range n.Children {
			if c == nil {
				cp.Children[i] = &tree.Node{N: unseenBranchN}
			} else {
				cp.Children[i] = markUnseen(c)
			}
		}
	}
	return &cp
}

// restoreUnseen turns the marker nodes below n back into nil children.
func restoreUnseen(n *tree.Node) {
	if n == nil {
		return
	}
	for i, c := range n.Children {
		if c != nil && c.N == unseenBranchN {
			n.Children[i] = nil
		} else {
			restoreUnseen(c)
		}
	}
}
