// Package telemetry is a fixture stub modelling the real
// internal/telemetry JSONL stream writer: resclose matches the type by
// package name, so fixtures can exercise the lifecycle rule without
// importing the module itself.
package telemetry

// JSONLFile stands in for the buffered JSONL stream writer.
type JSONLFile struct{}

// CreateJSONL opens a JSONL stream at path.
func CreateJSONL(path string) (*JSONLFile, error) {
	_ = path
	return &JSONLFile{}, nil
}

// Encode appends one record.
func (w *JSONLFile) Encode(v interface{}) error {
	_ = v
	return nil
}

// Close flushes and closes the stream.
func (w *JSONLFile) Close() error { return nil }
