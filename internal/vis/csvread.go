package vis

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadCSVSeries parses column-oriented series data written by
// WriteCSVSeries: a header row followed by numeric rows. It returns the
// headers and one slice per column, enabling round-trip tests and
// post-processing of the repro harness's outputs.
func ReadCSVSeries(r io.Reader) (headers []string, columns [][]float64, err error) {
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if headers == nil {
			headers = fields
			columns = make([][]float64, len(headers))
			continue
		}
		if len(fields) != len(headers) {
			return nil, nil, fmt.Errorf("vis: line %d has %d fields, want %d", line, len(fields), len(headers))
		}
		for c, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, nil, fmt.Errorf("vis: line %d column %d: %w", line, c, err)
			}
			columns[c] = append(columns[c], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if headers == nil {
		return nil, nil, fmt.Errorf("vis: empty CSV")
	}
	return headers, columns, nil
}
