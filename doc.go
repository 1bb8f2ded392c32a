// Package vvd is a from-scratch Go reproduction of "Veni Vidi Dixi:
// Reliable Wireless Communication with Depth Images" (CoNEXT 2019):
// CNN-based blind wireless channel estimation from depth images of the
// communication environment, evaluated against data-based and Kalman
// channel estimators on a simulated IEEE 802.15.4 testbed.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory and README.md for a tour); cmd/vvd-eval prints every table
// and figure of the paper's evaluation; bench_test.go times the hot
// paths; examples/ contains runnable scenarios. Beyond the evaluation,
// internal/serve and cmd/vvd-serve turn the trained CNN into a
// long-running multi-link estimation service — batched inference of only
// the newest submitted frame, serving freshest-wins channel estimates to
// concurrent link sessions over a binary wire protocol and HTTP/JSON (the
// paper's §6.6 real-time argument as infrastructure), and
// internal/scenario generalizes the paper's single-walker world into a
// registry of named presets — multi-occupant crowds, empty rooms, SNR and
// mobility extremes — swept end to end by vvd-eval -scenarios.
package vvd
