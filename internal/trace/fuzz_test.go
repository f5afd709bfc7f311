package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"reflect"
	"testing"
)

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readAllCSV drains a CSVReader over r the way a tolerant caller does:
// records are kept, RecordErrors skipped, and the loop stops at EOF or the
// first other error. Every Read that returns must have consumed input, so
// the loop fails tb as soon as it has made more Reads than there were
// bytes to read.
func readAllCSV(tb testing.TB, r io.Reader) (recs []Record, skipped int, end error) {
	tb.Helper()
	cr := &countingReader{r: r}
	rd := NewCSVReader(cr)
	for reads := int64(1); ; reads++ {
		if reads > cr.n+2 {
			tb.Fatalf("%d reads over %d bytes: the reader does not advance", reads, cr.n)
		}
		rec, err := rd.Read()
		var re *RecordError
		switch {
		case err == nil:
			recs = append(recs, rec)
		case errors.As(err, &re):
			skipped++
		default:
			return recs, skipped, err
		}
	}
}

// FuzzCSVReader feeds arbitrary bytes, plain or gzip, through the trace
// input path (MaybeCompressed, then CSVReader). The reader must not panic,
// its read loop must end, and every record it returns must survive a
// CSVWriter round trip unchanged.
func FuzzCSVReader(f *testing.F) {
	seeds := []string{
		malformedCSV,
		"",
		"block,time,kind,from,from_kind,to,to_kind,value\n",
		"1,1000,tx,0,account,1,account,42\n1,1000,call,1,account,2,contract,0\n",
		"blk,ts,type,src,src_kind,dst,dst_kind,amount\n1,1000,tx,0,account,1,account,42\n",
		"block,time,kind,from,from_kind,to,to_kind,value\n1,2,bogus,0,account,1,account,0\n",
		"block,time,kind,from,from_kind,to,to_kind,value\n" +
			"1,1000,tx,0,account,1,account,42\n" +
			"1,1000,call,1,account,2,contract,0\n" +
			"2,2000,create,0,contract,3,contract,18446744073709551615\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write([]byte(malformedCSV)); err != nil {
		f.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(gz.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := MaybeCompressed(bytes.NewReader(data))
		if err != nil {
			return // gzip magic with a bad gzip header: refused up front
		}
		recs, _, _ := readAllCSV(t, r)
		if len(recs) == 0 {
			return
		}

		var buf bytes.Buffer
		w := NewCSVWriter(&buf)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatalf("re-encoding %+v: %v", rec, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, skipped, end := readAllCSV(t, &buf)
		if skipped != 0 || !errors.Is(end, io.EOF) {
			t.Fatalf("re-encoded trace read back with %d skipped records, ending in %v", skipped, end)
		}
		if !reflect.DeepEqual(back, recs) {
			t.Fatalf("round trip changed records:\nread:  %+v\nback: %+v", recs, back)
		}
	})
}
