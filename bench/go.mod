module gridbank/bench

go 1.24

require gridbank v0.0.0

replace gridbank => ../
