package fivegsim

// TempExperiment exposes tempExperiment to the external test package,
// whose tests import packages that import fivegsim.
var TempExperiment = tempExperiment
