package telemetry

import (
	"bufio"
	"encoding/json"
	"os"
)

// JSONLFile is a convenience JSONL sink for the CLIs' -metrics-out flag:
// records are appended line by line and flushed on Close.
type JSONLFile struct {
	f   *os.File
	bw  *bufio.Writer
	enc *json.Encoder
}

// CreateJSONL creates (truncating) a JSONL metrics file.
func CreateJSONL(path string) (*JSONLFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	return &JSONLFile{f: f, bw: bw, enc: json.NewEncoder(bw)}, nil
}

// Write appends one record as a JSON line.
func (j *JSONLFile) Write(record any) error { return j.enc.Encode(record) }

// Close flushes and closes the file.
func (j *JSONLFile) Close() error {
	if err := j.bw.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
