package serve

import (
	"math"
	"slices"
	"testing"

	"highorder/internal/data"
)

// FuzzClassifyRequest is the differential fuzzer of the JSON request
// codec. Arbitrary bytes go through decodeClassifyJSON or
// decodeObserveJSON and through encoding/json with DisallowUnknownFields
// (the decoder the hand-written one replaced), and two rules must hold:
//
//   - when the decoder accepts, encoding/json accepts too, with the same
//     Float64bits, classes and proba;
//   - when encoding/json rejects, the decoder rejects too.
//
// Accepted bodies then take the rest of the serving path: every batch
// that decodeRecords accepts must be servable — schema-width vectors,
// finite values, integral in-range nominals — and classify or observe
// without panicking on a real session.
func FuzzClassifyRequest(f *testing.F) {
	for _, seed := range []string{
		`{"records":[[0,1,2]]}`,
		`{"records":[[0,1,2],[2,0,0]],"proba":true}`,
		`{"records":[]}`,
		`{"records":[[0.5,1,2]]}`,
		`{"records":[[1e308,0,0]]}`,
		`{"records":[[-1,0,0]]}`,
		`{"records":[[0,0]]}`,
		`{"records":[[0,0,0]],"unknown":1}`,
		`{"records":null}`,
		`[[0,1,2]]`,
		`{`,
		`{"records":[[0,null,2]]}`,
		`{"records":[[0,1,2]],"proba":null}`,
		`{"records":[[0,1,2]]}{"records":[[9,9,9]]}`,
		`{"records":[[0,1,2]]} garbage`,
		`{"Records":[[0,1,2]]}`,
		`{"rec\u006frds":[[0,1,2]]}`,
		`{"records":[[0,1,2]],"records":[[2,1,0]]}`,
		"\t{ \"proba\" : false , \"records\" : [ [ 0 , 1 , 2 ] ] }\n",
	} {
		f.Add([]byte(seed), false)
	}
	for _, seed := range []string{
		`{"records":[[0,1,2]],"classes":[1]}`,
		`{"classes":[0,1],"records":[[0,1,2],[2,1,0]]}`,
		`{"records":[[0,1,2]],"classes":[null]}`,
		`{"records":[[0,1,2]],"classes":null}`,
		`{"records":[[0,1,2]],"classes":[1.5]}`,
		`{"records":[[0,1,2]],"classes":[1]}{"records":[[0,1,2]],"classes":[1]}`,
		`{"records":[[0,1,2]],"CLASSES":[1]}`,
		`{"records":[[0,1,2]],"cl\u0061sses":[1]}`,
		`{"records":[[0,1,2]],"classes":[1],"classes":[0]}`,
		`{"records":[[0,1,2]]}`,
	} {
		f.Add([]byte(seed), true)
	}

	m := testModel()
	f.Fuzz(func(t *testing.T, body []byte, observe bool) {
		records, classes, proba, err := decodeDifferential(t, body, observe)
		if err != nil {
			return
		}
		recs, err := decodeRecords(m.Schema, records, classes)
		if err != nil {
			return
		}
		if len(recs) == 0 {
			t.Fatalf("decodeRecords accepted an empty batch: %q", body)
		}
		for i, r := range recs {
			if len(r.Values) != m.Schema.NumAttributes() {
				t.Fatalf("record %d: accepted width %d, schema wants %d", i, len(r.Values), m.Schema.NumAttributes())
			}
			for j, a := range m.Schema.Attributes {
				x := r.Values[j]
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("record %d attr %d: accepted non-finite %v", i, j, x)
				}
				if a.Kind == data.Nominal {
					idx := int(x)
					if float64(idx) != x || idx < 0 || idx >= len(a.Values) { //homlint:allow floatcmp -- exact integrality check mirroring decodeRecords
						t.Fatalf("record %d attr %d: accepted invalid nominal %v", i, j, x)
					}
				}
			}
		}
		// Accepted input must serve: run it through a real session.
		sess := NewLocalSession(m.NewPredictor())
		if observe {
			if resp := sess.Observe(recs); resp.Applied != len(recs) {
				t.Fatalf("observe applied %d of %d records", resp.Applied, len(recs))
			}
			return
		}
		resp := sess.Classify(recs, proba)
		if len(resp.Predictions) != len(recs) {
			t.Fatalf("%d predictions for %d records", len(resp.Predictions), len(recs))
		}
		for i, p := range resp.Predictions {
			if p < 0 || p >= m.Schema.NumClasses() {
				t.Fatalf("record %d: prediction %d out of class range", i, p)
			}
		}
		if proba && len(resp.Probabilities) != len(recs) {
			t.Fatalf("proba requested but %d distributions for %d records", len(resp.Probabilities), len(recs))
		}
	})
}

// decodeDifferential decodes body with the JSON request decoder and with
// encoding/json (strictJSON), and fails t unless the decoder is a strict
// subset of encoding/json: whatever it accepts, encoding/json accepts with
// the same Float64bits, classes and proba. It returns the decoder's result.
func decodeDifferential(t *testing.T, body []byte, observe bool) (records [][]float64, classes []int, proba bool, err error) {
	t.Helper()
	var sc jsonScratch
	var jerr error
	var jrecords [][]float64
	var jclasses []int
	jproba := false
	if observe {
		var got, want ObserveRequest
		got, err = decodeObserveJSON(body, &sc)
		jerr = strictJSON(body, &want)
		records, classes, jrecords, jclasses = got.Records, got.Classes, want.Records, want.Classes
	} else {
		var got, want ClassifyRequest
		got, err = decodeClassifyJSON(body, &sc)
		jerr = strictJSON(body, &want)
		records, proba, jrecords, jproba = got.Records, got.Proba, want.Records, want.Proba
	}
	switch {
	case err != nil:
	case jerr != nil:
		t.Fatalf("decoder accepted %q, encoding/json rejects it: %v", body, jerr)
	case !sameBits(records, jrecords) || !slices.Equal(classes, jclasses) || proba != jproba:
		t.Fatalf("%q: decoded %v %v %v, encoding/json %v %v %v", body, records, classes, proba, jrecords, jclasses, jproba)
	}
	return records, classes, proba, err
}
