module graphrnn/bench

go 1.24

require graphrnn v0.0.0

replace graphrnn => ../
