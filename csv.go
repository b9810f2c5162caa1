package rolap

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// CSVOptions configures LoadCSV.
type CSVOptions struct {
	// Comma is the field delimiter (default ',').
	Comma rune
	// MeasureColumn names the measure column (default "measure"). All
	// other columns become dimensions. If the named column is absent,
	// every row gets measure 1 (COUNT semantics).
	MeasureColumn string
}

// ErrCSVHeader is wrapped by LoadCSV's and IngestCSV's error when the
// header cannot be read as one measure column plus dimensions: it
// names the measure column twice, or (LoadCSV) it is a holistic
// view's header, whose estimate column is not a dimension.
var ErrCSVHeader = errors.New("rolap: ambiguous CSV header")

// estimateColumn is the measure column View.WriteCSV writes for a
// holistic view: its values are estimates served from sketches.
const estimateColumn = "measure_estimate"

// measureColumn returns the index of the measure column in header (-1
// if absent), rejecting a header that names it twice.
func measureColumn(header []string, name string) (int, error) {
	col := -1
	for c, h := range header {
		if h != name {
			continue
		}
		if col >= 0 {
			return -1, fmt.Errorf("%w: measure column %q is columns %d and %d", ErrCSVHeader, name, col+1, c+1)
		}
		col = c
	}
	return col, nil
}

// LoadCSV reads a fact table from CSV. The first record is the
// header: every column except the measure column becomes a dimension
// whose string values are dictionary-encoded into dense codes;
// cardinalities are the observed distinct counts. The returned Input
// remembers the dictionaries, so views gathered from the built cube
// can decode values back to strings (View.Decode, View.WriteCSV).
//
// This is the ROLAP integration path the paper motivates: fact tables
// arrive as relations, and every materialized view leaves as one.
func LoadCSV(r io.Reader, opts CSVOptions) (*Input, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("rolap: reading CSV header: %w", err)
	}
	measureName := opts.MeasureColumn
	if measureName == "" {
		measureName = "measure"
	}
	measCol, err := measureColumn(header, measureName)
	if err != nil {
		return nil, err
	}
	var dimNames []string
	var dimCols []int
	for c, name := range header {
		if c == measCol {
			continue
		}
		if name == estimateColumn {
			// A holistic view written by WriteCSV: its estimates are a
			// measure only if the caller says so.
			return nil, fmt.Errorf("%w: column %q holds a holistic view's estimates; set CSVOptions.MeasureColumn to %q to load them as the measure",
				ErrCSVHeader, name, name)
		}
		dimNames = append(dimNames, name)
		dimCols = append(dimCols, c)
	}
	if len(dimNames) == 0 {
		return nil, fmt.Errorf("rolap: CSV has no dimension columns")
	}

	// First pass: read all records, building dictionaries.
	type rawRow struct {
		codes []uint32
		meas  int64
	}
	dicts := make([]map[string]uint32, len(dimNames))
	values := make([][]string, len(dimNames)) // code -> string
	for i := range dicts {
		dicts[i] = map[string]uint32{}
	}
	var rows []rawRow
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("rolap: reading CSV line %d: %w", line, err)
		}
		row := rawRow{codes: make([]uint32, len(dimNames)), meas: 1}
		for k, c := range dimCols {
			if c >= len(rec) {
				return nil, fmt.Errorf("rolap: CSV line %d has %d fields, header has %d", line, len(rec), len(header))
			}
			v := rec[c]
			code, ok := dicts[k][v]
			if !ok {
				code = uint32(len(values[k]))
				dicts[k][v] = code
				values[k] = append(values[k], v)
			}
			row.codes[k] = code
		}
		if measCol >= 0 {
			if measCol >= len(rec) {
				return nil, fmt.Errorf("rolap: CSV line %d missing measure column", line)
			}
			m, err := strconv.ParseInt(rec[measCol], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("rolap: CSV line %d: bad measure %q", line, rec[measCol])
			}
			row.meas = m
		}
		rows = append(rows, row)
	}

	// Canonical freeze-time attribute-value reordering (Kaser & Lemire):
	// codes are reassigned by descending frequency, ties broken by value
	// ascending. Two loads of the same logical data now produce the same
	// dictionaries regardless of row order — first-appearance codes did
	// not — and hot values get the smallest codes, which lengthens runs
	// and narrows bit widths in the sorted columnar storage.
	for k := range dimNames {
		freq := make([]int64, len(values[k]))
		for _, row := range rows {
			freq[row.codes[k]]++
		}
		perm := make([]int, len(values[k])) // new code -> old code
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(a, b int) bool {
			if freq[perm[a]] != freq[perm[b]] {
				return freq[perm[a]] > freq[perm[b]]
			}
			return values[k][perm[a]] < values[k][perm[b]]
		})
		remap := make([]uint32, len(values[k])) // old code -> new code
		newVals := make([]string, len(values[k]))
		for newCode, oldCode := range perm {
			remap[oldCode] = uint32(newCode)
			newVals[newCode] = values[k][oldCode]
		}
		values[k] = newVals
		for i := range rows {
			rows[i].codes[k] = remap[rows[i].codes[k]]
		}
	}

	// Build the schema from observed cardinalities and load the rows.
	schema := Schema{Dimensions: make([]Dimension, len(dimNames))}
	for k, name := range dimNames {
		card := len(values[k])
		if card == 0 {
			card = 1 // empty input: keep the schema valid
		}
		schema.Dimensions[k] = Dimension{Name: name, Cardinality: card}
	}
	in, err := NewInput(schema)
	if err != nil {
		return nil, err
	}
	in.dicts = values
	for _, row := range rows {
		if err := in.AddRow(row.codes, row.meas); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// IngestCSV reads a batch of new facts from CSV and applies it to the
// live cube as one incremental maintenance batch (Cube.Ingest). The
// header must name every cube dimension exactly once, in any order
// (plus an optional measure column, CSVOptions semantics);
// values are resolved through the cube's dictionaries when it was
// loaded from CSV, and parsed as numeric codes otherwise. Unknown
// dictionary values and out-of-cardinality codes are errors — the
// schema is fixed at build time — and reject the whole batch before
// any row is applied.
func (c *Cube) IngestCSV(r io.Reader, opts CSVOptions) (IngestMetrics, error) {
	if err := c.ingestable(); err != nil {
		return IngestMetrics{}, err
	}
	in := c.in
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	header, err := cr.Read()
	if err != nil {
		return IngestMetrics{}, fmt.Errorf("rolap: reading CSV header: %w", err)
	}
	measureName := opts.MeasureColumn
	if measureName == "" {
		measureName = "measure"
	}
	measCol, err := measureColumn(header, measureName)
	if err != nil {
		return IngestMetrics{}, err
	}
	colDim := make([]int, len(header)) // column -> user dimension index, -1 for measure
	seen := make([]bool, len(in.schema.Dimensions))
	for col, name := range header {
		if col == measCol {
			colDim[col] = -1
			continue
		}
		found := -1
		for u, d := range in.schema.Dimensions {
			if d.Name == name {
				found = u
				break
			}
		}
		if found == -1 {
			return IngestMetrics{}, fmt.Errorf("rolap: CSV column %q is not a cube dimension", name)
		}
		if seen[found] {
			return IngestMetrics{}, fmt.Errorf("rolap: CSV column %q repeated", name)
		}
		seen[found] = true
		colDim[col] = found
	}
	for u, ok := range seen {
		if !ok {
			return IngestMetrics{}, fmt.Errorf("rolap: CSV is missing dimension column %q", in.schema.Dimensions[u].Name)
		}
	}

	var rows [][]uint32
	var meas []int64
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return IngestMetrics{}, fmt.Errorf("rolap: reading CSV line %d: %w", line, err)
		}
		if len(rec) < len(header) {
			return IngestMetrics{}, fmt.Errorf("rolap: CSV line %d has %d fields, header has %d", line, len(rec), len(header))
		}
		row := make([]uint32, len(in.schema.Dimensions))
		m := int64(1)
		for col, u := range colDim {
			if u == -1 {
				v, err := strconv.ParseInt(rec[col], 10, 64)
				if err != nil {
					return IngestMetrics{}, fmt.Errorf("rolap: CSV line %d: bad measure %q", line, rec[col])
				}
				m = v
				continue
			}
			var code uint32
			if in.dicts != nil {
				c, ok := in.CodeOf(in.schema.Dimensions[u].Name, rec[col])
				if !ok {
					return IngestMetrics{}, fmt.Errorf("rolap: CSV line %d: value %q not in dimension %q's dictionary (the schema is fixed at build time)",
						line, rec[col], in.schema.Dimensions[u].Name)
				}
				code = c
			} else {
				v, err := strconv.ParseUint(rec[col], 10, 32)
				if err != nil {
					return IngestMetrics{}, fmt.Errorf("rolap: CSV line %d: bad code %q for dimension %q", line, rec[col], in.schema.Dimensions[u].Name)
				}
				code = uint32(v)
			}
			if int(code) >= in.schema.Dimensions[u].Cardinality {
				return IngestMetrics{}, fmt.Errorf("rolap: CSV line %d: code %d out of range for dimension %q (cardinality %d)",
					line, code, in.schema.Dimensions[u].Name, in.schema.Dimensions[u].Cardinality)
			}
			row[u] = code
		}
		rows = append(rows, row)
		meas = append(meas, m)
	}
	return c.Ingest(rows, meas)
}

// Decode renders a dimension code as its original string. For inputs
// without dictionaries (NewInput), the numeric code is rendered.
func (in *Input) Decode(dim string, code uint32) string {
	for u, d := range in.schema.Dimensions {
		if d.Name == dim {
			if in.dicts != nil && int(code) < len(in.dicts[u]) {
				return in.dicts[u][code]
			}
			return strconv.FormatUint(uint64(code), 10)
		}
	}
	return strconv.FormatUint(uint64(code), 10)
}

// WriteCSV writes the view as a relational table: a header with the
// attribute names plus "measure", then one record per group, decoded
// through the input's dictionaries when available.
func (v *View) WriteCSV(w io.Writer, in *Input) error {
	cw := csv.NewWriter(w)
	// Sketch-served measures are estimates; say so in the header rather
	// than passing them off as exact totals.
	measName := "measure"
	if v.Estimated {
		measName = estimateColumn
	}
	header := append(append([]string{}, v.Attributes...), measName)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(v.Attributes)+1)
	for i := 0; i < v.Len(); i++ {
		key, m := v.Row(i)
		for c, attr := range v.Attributes {
			rec[c] = in.Decode(attr, key[c])
		}
		rec[len(rec)-1] = strconv.FormatInt(m, 10)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// DimensionValues returns the distinct values of a dimension in code
// order (dictionary inputs only; nil otherwise), for building query
// UIs over the cube.
func (in *Input) DimensionValues(dim string) []string {
	if in.dicts == nil {
		return nil
	}
	for u, d := range in.schema.Dimensions {
		if d.Name == dim {
			return append([]string(nil), in.dicts[u]...)
		}
	}
	return nil
}

// CodeOf returns the dictionary code of a dimension value (dictionary
// inputs only), for building queries from user-facing strings.
func (in *Input) CodeOf(dim, value string) (uint32, bool) {
	if in.dicts == nil {
		return 0, false
	}
	for u, d := range in.schema.Dimensions {
		if d.Name == dim {
			// The dictionaries are stored code->string; invert lazily.
			for code, s := range in.dicts[u] {
				if s == value {
					return uint32(code), true
				}
			}
			return 0, false
		}
	}
	return 0, false
}

// sortedNames is a test helper exposed for deterministic assertions.
func sortedNames(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}
