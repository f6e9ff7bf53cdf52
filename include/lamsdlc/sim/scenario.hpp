#pragma once
/// \file scenario.hpp
/// \brief One-stop wiring of a protocol pair over a simulated link.
///
/// A `Scenario` owns the simulator, the full-duplex link, a protocol
/// sender/receiver pair (LAMS-DLC, SR-HDLC or GBN-HDLC), and the delivery
/// tracker, so examples/tests/benches can express an experiment in a few
/// lines:
///
/// \code
///   sim::ScenarioConfig cfg;
///   cfg.protocol = sim::Protocol::kLams;
///   cfg.error.p_frame = 0.05;
///   sim::Scenario s{cfg};
///   workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(),
///                          1000, cfg.frame_bytes);
///   s.run_to_completion(Time::seconds_int(60));
///   auto r = s.report();
/// \endcode

#include <functional>
#include <memory>
#include <optional>

#include "lamsdlc/analysis/model.hpp"
#include "lamsdlc/core/simulator.hpp"
#include "lamsdlc/hdlc/gbn.hpp"
#include "lamsdlc/hdlc/sr.hpp"
#include "lamsdlc/lams/config.hpp"
#include "lamsdlc/lams/receiver.hpp"
#include "lamsdlc/lams/sender.hpp"
#include "lamsdlc/link/link.hpp"
#include "lamsdlc/nbdt/nbdt.hpp"
#include "lamsdlc/obs/bus.hpp"
#include "lamsdlc/obs/collector.hpp"
#include "lamsdlc/obs/metrics.hpp"
#include "lamsdlc/sim/dlc.hpp"
#include "lamsdlc/sim/error_config.hpp"
#include "lamsdlc/workload/sources.hpp"
#include "lamsdlc/workload/tracker.hpp"

namespace lamsdlc::sim {

enum class Protocol { kLams, kSrHdlc, kGbnHdlc, kNbdt };

struct ScenarioConfig {
  Protocol protocol = Protocol::kLams;

  /// \name Link
  /// @{
  double data_rate_bps = 300e6;
  Time prop_delay = Time::milliseconds(10);  ///< Fixed one-way delay…
  std::function<Time(Time)> propagation;     ///< …or a range profile override.
  std::uint32_t frame_bytes = 1024;
  std::optional<phy::FecParams> iframe_fec;
  std::optional<phy::FecParams> control_fec;
  /// Serialize every frame through the real byte codec (see
  /// link::SimplexChannel::Config::byte_level).
  bool byte_level_wire = false;
  /// @}

  ErrorConfig forward_error;  ///< Sender → receiver.
  ErrorConfig reverse_error;  ///< Receiver → sender (control traffic).

  std::uint64_t seed = 1;

  lams::LamsConfig lams;
  hdlc::HdlcConfig hdlc;
  nbdt::NbdtConfig nbdt;

  /// Collect metrics (obs::Registry) from the typed event stream.  Off by
  /// default: with no subscriber the event bus costs one branch per site.
  bool metrics = false;
};

/// End-of-run summary in the paper's terms.
struct ScenarioReport {
  std::uint64_t submitted = 0;
  std::uint64_t unique_delivered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t lost = 0;  ///< Submitted, never delivered (should be 0!).

  double elapsed_s = 0;            ///< First submit → last unique delivery.
  double throughput_frames_s = 0;  ///< N / D (the paper's eta numerator).
  double efficiency = 0;           ///< (N · t_f) / D in [0, 1].

  double mean_delay_s = 0;
  double mean_holding_s = 0;   ///< Paper's H_frame.
  double mean_send_buffer = 0; ///< Paper's transparent buffer size.
  double peak_send_buffer = 0;
  double mean_recv_buffer = 0;
  double peak_recv_buffer = 0;

  std::uint64_t iframe_tx = 0;
  std::uint64_t iframe_retx = 0;
  std::uint64_t control_tx = 0;

  /// Mean transmissions per delivered frame — the measured counterpart of
  /// the paper's s̄ (mean number of periods per successful delivery).
  double tx_per_frame = 0;
};

/// Owns and wires one complete protocol-over-link simulation.
class Scenario {
 public:
  explicit Scenario(ScenarioConfig cfg);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  [[nodiscard]] Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] DlcSender& sender() noexcept { return *sender_; }
  [[nodiscard]] workload::DeliveryTracker& tracker() noexcept { return tracker_; }
  [[nodiscard]] workload::PacketIdAllocator& ids() noexcept { return ids_; }
  [[nodiscard]] link::FullDuplexLink& link() noexcept { return *link_; }
  [[nodiscard]] DlcStats& stats() noexcept { return stats_; }
  [[nodiscard]] const ScenarioConfig& config() const noexcept { return cfg_; }

  /// Typed protocol event bus; both link directions and the LAMS endpoints
  /// publish here.  Subscribe a capture writer, a recording vector, or rely
  /// on `metrics()` (populated when config().metrics is set).
  [[nodiscard]] obs::EventBus& events() noexcept { return bus_; }
  [[nodiscard]] obs::Registry& metrics() noexcept { return registry_; }

  /// The LAMS receiver when protocol == kLams (else nullptr) — for tests
  /// poking at checkpoint internals.
  [[nodiscard]] lams::LamsReceiver* lams_receiver() noexcept { return lams_rx_.get(); }
  [[nodiscard]] lams::LamsSender* lams_sender() noexcept { return lams_tx_.get(); }
  [[nodiscard]] hdlc::SrSender* sr_sender() noexcept { return sr_tx_.get(); }
  [[nodiscard]] hdlc::SrReceiver* sr_receiver() noexcept { return sr_rx_.get(); }
  [[nodiscard]] hdlc::GbnSender* gbn_sender() noexcept { return gbn_tx_.get(); }
  [[nodiscard]] hdlc::GbnReceiver* gbn_receiver() noexcept { return gbn_rx_.get(); }
  [[nodiscard]] nbdt::NbdtSender* nbdt_sender() noexcept { return nbdt_tx_.get(); }
  [[nodiscard]] nbdt::NbdtReceiver* nbdt_receiver() noexcept { return nbdt_rx_.get(); }

  /// Replace the listener the receiver delivers into (default: the tracker).
  /// Call before traffic starts; the new listener usually chains to the
  /// tracker (see workload::Resequencer).
  void set_listener(PacketListener* l);

  /// Serialization time of a full-size I-frame on the forward channel (t_f).
  [[nodiscard]] Time frame_tx_time() const;

  /// Serialization time of an empty checkpoint on the reverse channel (t_c).
  [[nodiscard]] Time control_tx_time() const;

  /// Advance until every submitted packet is delivered and the sender is
  /// idle, or until \p horizon.  Returns true when completion was reached.
  bool run_to_completion(Time horizon, Time check_every = Time::milliseconds(1));

  [[nodiscard]] ScenarioReport report() const;

  /// The Section 4 closed-form parameters corresponding to this scenario's
  /// configuration — the bridge between simulation and analysis: benches put
  /// `analysis::eta_lams(s.analysis_params(), N)` next to the measured rate.
  [[nodiscard]] analysis::Params analysis_params() const;

 private:
  [[nodiscard]] std::unique_ptr<phy::ErrorModel> make_error(
      const ErrorConfig& e, std::string_view stream) const;

  ScenarioConfig cfg_;
  Simulator sim_;
  DlcStats stats_;
  obs::EventBus bus_;
  obs::Registry registry_;
  std::unique_ptr<obs::MetricsCollector> collector_;
  workload::PacketIdAllocator ids_;
  workload::DeliveryTracker tracker_;

  std::unique_ptr<link::FullDuplexLink> link_;

  std::unique_ptr<lams::LamsSender> lams_tx_;
  std::unique_ptr<lams::LamsReceiver> lams_rx_;
  std::unique_ptr<hdlc::SrSender> sr_tx_;
  std::unique_ptr<hdlc::SrReceiver> sr_rx_;
  std::unique_ptr<hdlc::GbnSender> gbn_tx_;
  std::unique_ptr<hdlc::GbnReceiver> gbn_rx_;
  std::unique_ptr<nbdt::NbdtSender> nbdt_tx_;
  std::unique_ptr<nbdt::NbdtReceiver> nbdt_rx_;

  DlcSender* sender_{nullptr};
};

}  // namespace lamsdlc::sim
