// lass_path.hpp - runs RM-side session tests over both ways an RM reaches
// its LASS: dialed over the transport like every other daemon, or
// co-located over the server's owner endpoint, the way the starter joins
// the LASS it starts.
#pragma once

#include <gtest/gtest.h>

#include <memory>

#include "attrspace/attr_server.hpp"
#include "core/tdp.hpp"

namespace tdp {

enum class LassPath { kDialed, kCoLocated };

/// tdp_init for an RM over `path`: dials options.lass_address, or adopts
/// an owner endpoint of `lass`.
inline Result<std::unique_ptr<TdpSession>> init_rm(LassPath path,
                                                   attr::AttrServer& lass,
                                                   InitOptions options) {
  if (path == LassPath::kCoLocated) {
    return TdpSession::adopt(std::move(options), lass.connect_local());
  }
  return TdpSession::init(std::move(options));
}

}  // namespace tdp

/// Defines an RM-side case once, as a member function of the `Dialed`
/// fixture, and registers it on both fixtures: `Dialed.Case` reaches the
/// LASS over the transport, `CoLocated.Case` (a fixture derived from
/// `Dialed` with LassPath::kCoLocated) over its owner endpoint.
#define TDP_RM_SESSION_TEST(Dialed, CoLocated, Case) \
  TEST_F(Dialed, Case) { Case(); }                   \
  TEST_F(CoLocated, Case) { Case(); }                \
  void Dialed::Case()
