package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"hyfd"
	"hyfd/internal/datasets"
)

// csvOptions is how both the benchmark and hyfdd parse the generated CSV.
var csvOptions = hyfd.CSVOptions{Comma: ',', HasHeader: true, EmptyIsNull: true}

// analog returns the first rows rows of the repository's named dataset
// analog, with every column's values renamed by a bijection drawn from
// seed. Renaming keeps each column's equality pattern, and so the FD
// structure and the order-dependent work of HyFD's sampler, identical for
// every seed; only the bytes the program parses and hashes change. (Row
// order is left alone on purpose: permuting the same 16,000 ncvoter rows
// moves a warm discovery between 1.17 s and 1.6 s, which would make the
// seed, not the code, the main source of run-to-run spread.)
func analog(name string, rows int, seed int64) (*hyfd.Relation, error) {
	d, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	rel := d.Generate(float64(rows) / float64(d.Rows))
	if rel.NumRows() < rows {
		return nil, fmt.Errorf("analog %s: generated %d rows, want %d", name, rel.NumRows(), rows)
	}
	rel = rel.Head(rows)
	for c := range rel.Columns {
		ids := make(map[string]int)
		for _, row := range rel.Rows {
			if v := row[c]; v != hyfd.Null {
				if _, ok := ids[v]; !ok {
					ids[v] = len(ids)
				}
			}
		}
		perm := rand.New(rand.NewSource(seed*1_000_003 + int64(c))).Perm(len(ids))
		for _, row := range rel.Rows {
			if v := row[c]; v != hyfd.Null {
				row[c] = "v" + strconv.FormatInt(int64(perm[ids[v]]), 36)
			}
		}
	}
	return rel, nil
}

// csvBytes serializes a relation the way a user would hand it over.
func csvBytes(rel *hyfd.Relation) ([]byte, error) {
	var b bytes.Buffer
	if err := rel.WriteCSV(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// setUp parses and prepares the CSV repeatedly (each time after settle),
// at least minReps times and until a second has passed, and records
// setup_s plus the read/prepare split as medians over the repetitions. It
// returns the last repetition's Dataset.
func setUp(ctx context.Context, r *run, name string, csv []byte, minReps int) (*hyfd.Dataset, error) {
	var total, read, prep []float64
	var out *hyfd.Dataset
	begin := time.Now()
	for i := 0; i < minReps || (time.Since(begin) < time.Second && i < 4*minReps); i++ {
		settle()
		start := time.Now()
		rel, err := hyfd.ReadCSV(name, bytes.NewReader(csv), csvOptions)
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", name, err)
		}
		parsed := time.Now()
		ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{})
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", name, err)
		}
		end := time.Now()
		total = append(total, end.Sub(start).Seconds())
		read = append(read, ms(parsed.Sub(start)))
		prep = append(prep, ms(end.Sub(parsed)))
		out = ds
	}
	r.set("setup_s", median(total))
	r.set("relation.read_csv_ms", median(read))
	r.set("dataset.prepare_ms", median(prep))
	return out, nil
}

// recordClusters records the PLI cluster-size distribution of a dataset
// (non-singleton clusters over all attributes).
func recordClusters(r *run, ds *hyfd.Dataset) {
	var sizes []float64
	ds.Index().ForEachClusterSize(func(n int) { sizes = append(sizes, float64(n)) })
	r.set("pli.clusters", float64(len(sizes)))
	r.set("pli.cluster_size_p50", median(sizes))
	maxSize := 0.0
	for _, s := range sizes {
		maxSize = max(maxSize, s)
	}
	r.set("pli.cluster_size_max", maxSize)
}

// fdDigest fingerprints an FD cover in canonical order.
func fdDigest(fds []hyfd.FD) string {
	h := sha256.New()
	var buf [4]byte
	for _, f := range fds {
		f.Lhs.ForEach(func(a int) bool {
			binary.LittleEndian.PutUint32(buf[:], uint32(a))
			h.Write(buf[:])
			return true
		})
		binary.LittleEndian.PutUint32(buf[:], ^uint32(f.Rhs))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// linesDigest fingerprints rendered result lines.
func linesDigest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
