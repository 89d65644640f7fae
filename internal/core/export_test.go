package core

// SampleDataset exposes sampleDataset to the external test package.
var SampleDataset = sampleDataset

// ScanDataset exposes the reflection-free decoder, which reports false
// for any input outside SaveDataset's grammar.
var ScanDataset = scanDataset
