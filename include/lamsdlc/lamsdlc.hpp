#pragma once
/// \file lamsdlc.hpp
/// \brief Umbrella header: the whole public API in one include.
///
/// For applications that prefer a single include over picking modules:
///
/// \code
///   #include "lamsdlc/lamsdlc.hpp"
/// \endcode
///
/// Library structure (see README.md for the guided tour):
///  - core      — discrete-event kernel, time, randomness, stats
///  - phy       — CRC, channel error models, FEC codec model
///  - orbit     — constellation geometry, visibility windows, contact plans
///  - frame     — frame formats, byte codecs, sequence-space arithmetic
///  - link      — simulated full-duplex laser links
///  - lams      — the LAMS-DLC protocol (the paper's contribution) + sessions
///  - hdlc      — SR-HDLC (incl. SR+ST, RNR) and GBN-HDLC baselines
///  - nbdt      — the NBDT continuous/multiphase baseline
///  - obs       — typed events, metric registry, capture files (.ldlcap)
///  - analysis  — the Section 4 closed-form performance model
///  - workload  — traffic sources, delivery tracking, message resequencing
///  - sim       — the one-stop Scenario harness
///  - net       — multi-hop store-and-forward constellation networks

#include "lamsdlc/analysis/model.hpp"
#include "lamsdlc/core/random.hpp"
#include "lamsdlc/core/simulator.hpp"
#include "lamsdlc/core/stats.hpp"
#include "lamsdlc/core/time.hpp"
#include "lamsdlc/frame/codec.hpp"
#include "lamsdlc/frame/frame.hpp"
#include "lamsdlc/frame/seqspace.hpp"
#include "lamsdlc/hdlc/config.hpp"
#include "lamsdlc/hdlc/gbn.hpp"
#include "lamsdlc/hdlc/sr.hpp"
#include "lamsdlc/lams/config.hpp"
#include "lamsdlc/lams/receiver.hpp"
#include "lamsdlc/lams/sender.hpp"
#include "lamsdlc/lams/session.hpp"
#include "lamsdlc/link/link.hpp"
#include "lamsdlc/nbdt/nbdt.hpp"
#include "lamsdlc/net/contact_schedule.hpp"
#include "lamsdlc/net/network.hpp"
#include "lamsdlc/obs/bus.hpp"
#include "lamsdlc/obs/capture.hpp"
#include "lamsdlc/obs/collector.hpp"
#include "lamsdlc/obs/event.hpp"
#include "lamsdlc/obs/metrics.hpp"
#include "lamsdlc/orbit/constellation.hpp"
#include "lamsdlc/orbit/orbit.hpp"
#include "lamsdlc/phy/crc.hpp"
#include "lamsdlc/phy/error_model.hpp"
#include "lamsdlc/phy/fault_injector.hpp"
#include "lamsdlc/phy/fec.hpp"
#include "lamsdlc/sim/chaos.hpp"
#include "lamsdlc/sim/dlc.hpp"
#include "lamsdlc/sim/error_config.hpp"
#include "lamsdlc/sim/invariants.hpp"
#include "lamsdlc/sim/packet.hpp"
#include "lamsdlc/sim/scenario.hpp"
#include "lamsdlc/workload/message.hpp"
#include "lamsdlc/workload/sources.hpp"
#include "lamsdlc/workload/tracker.hpp"
