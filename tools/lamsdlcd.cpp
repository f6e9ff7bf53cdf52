/// \file lamsdlcd.cpp
/// \brief The LAMS-DLC transport daemon: real UDP link, local client
///        bridge, delivery directory, optional impaired-link mode.
///
/// `lamsdlcd --help` lists every flag with its default (the flag table in
/// tools/daemon_opts.hpp is shared with `lamsdlc_cli serve`).  Quick start —
/// two daemons on loopback:
///
///   lamsdlcd --port 47001 &
///   lamsdlcd --peer 127.0.0.1:47001 --bridge 47101 &
///   lamsdlc_cli connect --port 47101 < file.bin
///
/// or a single process carrying traffic through the kernel and back:
///
///   lamsdlcd --self-peer --bridge --deliver-dir /tmp/out
///            --impair --p-drop 0.05 --capture /tmp/cap

#include "daemon_opts.hpp"

int main(int argc, char** argv) {
  return lamsdlc::tools::run_daemon_main(argc, argv, 1, "lamsdlcd");
}
