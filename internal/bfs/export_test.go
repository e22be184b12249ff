package bfs

// SequentialWithDirections exposes the twin's direction counts to the
// external tests.
var SequentialWithDirections = sequential
