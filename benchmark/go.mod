module heimdall/benchmark

go 1.22

require heimdall v0.0.0

replace heimdall => ../
