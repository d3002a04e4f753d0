// The one message schema that crosses a shard boundary (DESIGN.md §12).
//
// ShardMessage is a fixed-size trivially-copyable POD: it lives in a
// common::ShmMessagePool cell, and only its u32 pool INDEX travels through
// the transport rings, so a message is written once by its producer and
// read in place by its consumer — zero copies, zero allocations, valid
// across address spaces.
//
// Four kinds share the schema (a tagged union would buy 8 bytes and cost
// a second pool): kTick flows router -> shard ingress, kJobResult flows
// shard -> supervisor egress, and the OMS workload (src/trading/oms_task)
// adds kNewOrder (wind-up -> next job's mandatory part, the order
// gateway hop) and kExecReport (shard -> supervisor, per-job fills and
// P&L).
#pragma once

#include <type_traits>

#include "common/types.hpp"

namespace rtseed::shard {

using common::i64;
using common::u32;
using common::u64;

/// Most messages one write-ahead batch carries: what a journaled shard
/// worker peeks from its ingress ring, journals with one write(2), and
/// commits and releases together.
inline constexpr common::usize kMaxBatch = 64;

enum class MessageKind : u32 {
  kInvalid = 0,
  kTick = 1,        ///< market tick routed to the symbol's shard
  kJobResult = 2,   ///< per-job outcome a shard reports outward
  kNewOrder = 3,    ///< client order submission headed for the shard's OMS
  kExecReport = 4,  ///< per-job OMS execution summary reported outward
  kFlow = 5,        ///< order-flow delta for a journaled shard worker
};

struct ShardMessage {
  MessageKind kind = MessageKind::kInvalid;
  u32 symbol = 0;        ///< trading symbol id (the routing key)
  u64 seq = 0;           ///< producer-assigned sequence number
  i64 produced_ns = 0;   ///< CLOCK_MONOTONIC at production (hop latency)
  union {
    struct {
      double price;
      double volume;
    } tick;
    struct {
      i64 job;
      double signal;     ///< fused decision signal
      u32 iterations;    ///< QoS proxy: optional refinements delivered
      u32 missed;        ///< 1 when the job missed its deadline
    } result;
    struct {
      i64 price_ticks;   ///< limit price (lob::PriceTicks)
      i64 qty;           ///< order size in lots
      i64 ttl_ns;        ///< lifetime; 0 = good-till-cancel
      u32 side;          ///< lob::Side
      u32 flags;         ///< reserved
    } order;
    struct {
      i64 job;
      i64 filled;        ///< lots executed this job
      i64 pnl_ticks;     ///< realized + unrealized, ticks × lots
      u32 misses;        ///< cumulative deadline misses
      u32 shed;          ///< 1 when the drawdown breaker shed this job
    } exec;
    struct {
      i64 price_ticks;   ///< limit price (add/replace); ignored otherwise
      i64 qty;           ///< lots (add/replace/market)
      u32 flow_kind;     ///< lob::FlowKind
      u32 side;          ///< lob::Side
      u64 pick;          ///< victim selector for cancel/replace
    } flow;
  } body = {};
};

static_assert(std::is_trivially_copyable_v<ShardMessage>,
              "messages are raw bytes across the transport");
static_assert(sizeof(ShardMessage) <= 64,
              "one message per cache line; growing past a line is a "
              "deliberate decision, not an accident");

}  // namespace rtseed::shard
