package core

// SampleDataset exposes sampleDataset to the external test package.
var SampleDataset = sampleDataset
