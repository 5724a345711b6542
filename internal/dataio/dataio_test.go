package dataio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"highorder/internal/bayes"
	"highorder/internal/clock"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/obs"
	"highorder/internal/synth"
)

func sampleDataset(n int) *data.Dataset {
	g := synth.NewStagger(synth.StaggerConfig{Seed: 1})
	return synth.TakeDataset(g, n)
}

func TestCSVRoundTrip(t *testing.T) {
	d := sampleDataset(200)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round trip %d records, want %d", got.Len(), d.Len())
	}
	for i := range d.Records {
		if got.Records[i].Class != d.Records[i].Class {
			t.Fatalf("record %d class changed", i)
		}
		for j := range d.Records[i].Values {
			if got.Records[i].Values[j] != d.Records[i].Values[j] {
				t.Fatalf("record %d value %d changed", i, j)
			}
		}
	}
}

func TestCSVNumericRoundTrip(t *testing.T) {
	g := synth.NewHyperplane(synth.HyperplaneConfig{Seed: 2})
	d := synth.TakeDataset(g, 100)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Records {
		for j := range d.Records[i].Values {
			if got.Records[i].Values[j] != d.Records[i].Values[j] {
				t.Fatalf("numeric value not exactly preserved at record %d", i)
			}
		}
	}
}

func TestCSVHeader(t *testing.T) {
	d := sampleDataset(1)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if first != "color,shape,size,class" {
		t.Fatalf("header = %q", first)
	}
}

func TestReadCSVErrors(t *testing.T) {
	schema := synth.StaggerSchema()
	cases := map[string]string{
		"bad header":    "a,b,c,class\n",
		"unknown value": "color,shape,size,class\npurple,circle,small,negative\n",
		"unknown class": "color,shape,size,class\nred,circle,small,maybe\n",
		"short row":     "color,shape,size,class\nred,circle\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), schema); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestWriteCSVRejectsCorruptRecords(t *testing.T) {
	d := data.NewDataset(synth.StaggerSchema())
	d.Add(data.Record{Values: []float64{9, 0, 0}, Class: 0})
	if err := WriteCSV(&bytes.Buffer{}, d); err == nil {
		t.Error("out-of-range nominal accepted")
	}
	d2 := data.NewDataset(synth.StaggerSchema())
	d2.Add(data.Record{Values: []float64{0, 0, 0}, Class: 9})
	if err := WriteCSV(&bytes.Buffer{}, d2); err == nil {
		t.Error("out-of-range class accepted")
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := synth.IntrusionSchema()
	var buf bytes.Buffer
	if err := WriteSchema(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchema(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != s.String() {
		t.Fatalf("schema changed in round trip:\n%s\n%s", got, s)
	}
}

func TestReadSchemaValidates(t *testing.T) {
	if _, err := ReadSchema(strings.NewReader(`{"Attributes":[],"Classes":["a","b"]}`)); err == nil {
		t.Fatal("invalid schema accepted")
	}
	if _, err := ReadSchema(strings.NewReader(`{garbage`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestModelRoundTrip(t *testing.T) {
	g := synth.NewStagger(synth.StaggerConfig{Seed: 3})
	hist := synth.TakeDataset(g, 4000)
	opts := core.DefaultOptions()
	opts.Seed = 3
	m, err := core.Build(hist, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumConcepts() != m.NumConcepts() {
		t.Fatalf("concepts changed: %d vs %d", got.NumConcepts(), m.NumConcepts())
	}
	// The loaded model must predict identically.
	test := synth.TakeDataset(g, 2000)
	p1, p2 := m.NewPredictor(), got.NewPredictor()
	for _, r := range test.Records {
		x := data.Record{Values: r.Values}
		if p1.Predict(x) != p2.Predict(x) {
			t.Fatal("loaded model predicts differently")
		}
		p1.Observe(r)
		p2.Observe(r)
	}
}

// TestModelBytesIndependentOfTracing: on a frozen fake clock, a build
// with a flight recorder attached writes the same model bytes as one
// without — tracing observes the build and never steers it.
func TestModelBytesIndependentOfTracing(t *testing.T) {
	hist := synth.TakeDataset(synth.NewStagger(synth.StaggerConfig{Seed: 5}), 3000)
	gobOf := func(rec *obs.Recorder) []byte {
		t.Helper()
		opts := core.DefaultOptions()
		opts.Seed = 5
		opts.Clock = clock.NewFake(time.Unix(0, 0)).Clock()
		opts.Recorder = rec
		m, err := core.Build(hist, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteModel(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	rec := obs.NewRecorder(obs.FlightConfig{Proc: "build", Slots: 1 << 12, Shards: 1})
	plain, traced := gobOf(nil), gobOf(rec)
	if !bytes.Equal(plain, traced) {
		t.Fatalf("model gob differs with a recorder attached: %d vs %d bytes", len(plain), len(traced))
	}
	if len(rec.Snapshot("test").Spans) == 0 {
		t.Fatal("the traced build recorded no spans")
	}
}

func TestModelRoundTripWithBayes(t *testing.T) {
	g := synth.NewStagger(synth.StaggerConfig{Seed: 4})
	hist := synth.TakeDataset(g, 3000)
	opts := core.DefaultOptions()
	opts.Seed = 4
	opts.Learner = bayes.NewLearner()
	m, err := core.Build(hist, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	test := synth.TakeDataset(g, 500)
	p1, p2 := m.NewPredictor(), got.NewPredictor()
	for _, r := range test.Records {
		x := data.Record{Values: r.Values}
		if p1.Predict(x) != p2.Predict(x) {
			t.Fatal("loaded bayes-based model predicts differently")
		}
		p1.Observe(r)
		p2.Observe(r)
	}
}

func TestLoadModelMissingFile(t *testing.T) {
	if _, err := LoadModel(filepath.Join(t.TempDir(), "absent.gob")); !os.IsNotExist(err) {
		t.Fatalf("want os.IsNotExist error, got %v", err)
	}
}

func TestStreamReaderMatchesReadCSV(t *testing.T) {
	d := sampleDataset(150)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()), d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		rec, err := sr.Next()
		if err == io.EOF {
			if i != d.Len() {
				t.Fatalf("stream ended after %d records, want %d", i, d.Len())
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Class != d.Records[i].Class {
			t.Fatalf("record %d class mismatch", i)
		}
		for j := range rec.Values {
			if rec.Values[j] != d.Records[i].Values[j] {
				t.Fatalf("record %d value %d mismatch", i, j)
			}
		}
	}
	if sr.Line() != d.Len() {
		t.Fatalf("Line() = %d, want %d", sr.Line(), d.Len())
	}
}

func TestStreamReaderErrors(t *testing.T) {
	schema := synth.StaggerSchema()
	if _, err := NewStreamReader(strings.NewReader("a,b,c,class\n"), schema); err == nil {
		t.Error("bad header accepted")
	}
	sr, err := NewStreamReader(strings.NewReader("color,shape,size,class\npurple,circle,small,negative\n"), schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err == nil {
		t.Error("unknown nominal value accepted")
	}
}

func TestStreamReaderRecordsIndependent(t *testing.T) {
	// csv.ReuseRecord is set; the returned data.Records must still be
	// independent of each other.
	d := sampleDataset(3)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()), d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64{}, a.Values...)
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if a.Values[i] != before[i] {
			t.Fatal("Next() mutated a previously returned record")
		}
	}
}
