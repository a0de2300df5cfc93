#include "core/classic_engine.hpp"

#include <algorithm>
#include <vector>

#include "earth/machine.hpp"
#include "inspector/classic_inspector.hpp"
#include "support/check.hpp"

namespace earthred::core {

using earth::Cycles;
using earth::EarthMachine;
using earth::FiberContext;
using earth::FiberId;

namespace {
CostTags make_tags(const KernelShape& shape) {
  earth::ArrayTagAllocator alloc;
  CostTags tags;
  for (std::uint32_t a = 0; a < shape.num_reduction_arrays; ++a)
    tags.reduction.push_back(alloc.next());
  for (std::uint32_t a = 0; a < shape.num_node_read_arrays; ++a)
    tags.node_read.push_back(alloc.next());
  tags.edge_data = alloc.next();
  tags.indir = alloc.next();
  return tags;
}
}  // namespace

RunResult run_classic_engine(const PhasedKernel& kernel,
                             const ClassicOptions& opt) {
  const KernelShape shape = kernel.shape();
  ER_EXPECTS(opt.num_procs >= 1);
  ER_EXPECTS(opt.sweeps >= 1);
  ER_EXPECTS(shape.num_nodes >= opt.num_procs);

  const std::uint32_t P = opt.num_procs;
  const CostTags tags = make_tags(shape);

  // ---- inspector (host side; charged on-machine below) -----------------
  const auto owned_iters = inspector::distribute_iterations(
      shape.num_edges, P, opt.distribution, opt.block_cyclic_size);
  std::vector<inspector::IterationRefs> per_proc(P);
  for (std::uint32_t p = 0; p < P; ++p) {
    per_proc[p].global_iter = owned_iters[p];
    per_proc[p].refs.resize(shape.num_refs);
    for (std::uint32_t r = 0; r < shape.num_refs; ++r) {
      per_proc[p].refs[r].reserve(owned_iters[p].size());
      for (std::uint32_t e : owned_iters[p])
        per_proc[p].refs[r].push_back(kernel.ref(r, e));
    }
  }
  const inspector::ClassicSchedule sched =
      inspector::build_classic_schedule(shape.num_nodes, P, per_proc);

  struct ProcState {
    ProcStorage arrays;
    ProcArrays view;
    /// mailbox[src]: values received from processor src this sweep.
    std::vector<std::vector<double>> mailbox;
    std::uint32_t num_senders = 0;
  };
  std::vector<ProcState> procs(P);
  for (std::uint32_t p = 0; p < P; ++p) {
    procs[p].arrays.reduction.assign(
        shape.num_reduction_arrays,
        std::vector<double>(sched.proc[p].local_array_size() *
                            1, 0.0));
    procs[p].arrays.node_read.assign(
        shape.num_node_read_arrays,
        std::vector<double>(shape.num_nodes, 0.0));
    kernel.init_node_arrays(procs[p].arrays.node_read);
    procs[p].view = procs[p].arrays.view(sched.proc[p].local_array_size());
    procs[p].mailbox.resize(P);
  }
  // Mailboxes carry all reduction arrays interleaved per value:
  // [value0_array0, value0_array1, ..., value1_array0, ...].
  for (std::uint32_t src = 0; src < P; ++src)
    for (std::uint32_t dst = 0; dst < P; ++dst)
      if (!sched.proc[src].send_ghost_slot[dst].empty()) {
        procs[dst].mailbox[src].assign(
            sched.proc[src].send_ghost_slot[dst].size() *
                shape.num_reduction_arrays,
            0.0);
        ++procs[dst].num_senders;
      }

  earth::MachineConfig mcfg = opt.machine;
  mcfg.num_nodes = P;
  EarthMachine m(mcfg);

  // ---- stage 1: inspector, including translation-table exchange --------
  std::vector<FiberId> insp_ack(P);
  for (std::uint32_t p = 0; p < P; ++p) {
    if (procs[p].num_senders > 0) {
      insp_ack[p] = m.add_fiber(p, procs[p].num_senders,
                                [](FiberContext&) {},
                                "insp-ack[" + std::to_string(p) + "]");
    }
  }
  for (std::uint32_t p = 0; p < P; ++p) {
    const std::uint64_t work = owned_iters[p].size() * shape.num_refs *
                               opt.inspector_cycles_per_ref;
    const FiberId f = m.add_fiber(
        p, 0,
        [&, p, work](FiberContext& ctx) {
          ctx.charge(work);
          // Ship the per-destination ghost lists (the translation table):
          // this is the communication the LightInspector avoids.
          for (std::uint32_t dst = 0; dst < P; ++dst) {
            const auto& slots = sched.proc[p].send_ghost_slot[dst];
            if (slots.empty()) continue;
            ctx.send(insp_ack[dst],
                     static_cast<std::uint64_t>(slots.size()) * 4, {});
          }
        },
        "inspector[" + std::to_string(p) + "]");
    m.credit(f);
  }
  const Cycles t_inspector = m.run();

  // ---- stage 2: executor sweeps -----------------------------------------
  RunResult result;
  const bool collect = opt.collect_results;
  if (collect)
    result.reduction.assign(shape.num_reduction_arrays,
                            std::vector<double>(shape.num_nodes, 0.0));

  std::vector<FiberId> compute(P), fold(P);
  std::vector<std::vector<FiberId>> gate(P, std::vector<FiberId>(P));
  const std::uint32_t sweeps = opt.sweeps;

  for (std::uint32_t p = 0; p < P; ++p) {
    // compute[p]: previous fold done (1) + P-1 node-read broadcasts.
    compute[p] = m.add_fiber(
        p, P,
        [&, p](FiberContext& ctx) {
          ProcState& ps = procs[p];
          const auto& cs = sched.proc[p];

          // Zero the local accumulation array (owned block + ghosts).
          for (std::uint32_t a = 0; a < shape.num_reduction_arrays; ++a) {
            std::fill(ps.arrays.reduction[a].begin(),
                      ps.arrays.reduction[a].end(), 0.0);
            for (std::uint64_t i = 0; i < cs.local_array_size(); ++i)
              ctx.store(tags.reduction[a], i);
          }

          // All local iterations in one loop (no phases).
          ctx.charge_intops(4 + cs.iter_global.size());
          std::vector<std::uint32_t> redirected(shape.num_refs);
          for (std::size_t j = 0; j < cs.iter_global.size(); ++j) {
            for (std::uint32_t r = 0; r < shape.num_refs; ++r) {
              redirected[r] = cs.indir[r][j];
              ctx.load(tags.indir, j * shape.num_refs + r, 4);
            }
            kernel.compute_edge(ctx, tags, cs.iter_global[j], j, redirected,
                                ps.view);
          }

          // Ship aggregated ghost contributions to the owners.
          for (std::uint32_t dst = 0; dst < P; ++dst) {
            const auto& slots = cs.send_ghost_slot[dst];
            if (slots.empty()) continue;
            // Pack (charged as loads of the ghost region).
            for (std::size_t j = 0; j < slots.size(); ++j)
              for (std::uint32_t a = 0; a < shape.num_reduction_arrays; ++a)
                ctx.load(tags.reduction[a], cs.owned_size() + slots[j]);
            const std::uint64_t bytes =
                static_cast<std::uint64_t>(slots.size()) * 8 *
                shape.num_reduction_arrays;
            ctx.send(fold[dst], bytes, [&procs, &sched, &shape, p, dst] {
              const auto& slots2 = sched.proc[p].send_ghost_slot[dst];
              auto& box = procs[dst].mailbox[p];
              const std::uint32_t owned = sched.proc[p].owned_size();
              for (std::size_t j = 0; j < slots2.size(); ++j)
                for (std::uint32_t a = 0; a < shape.num_reduction_arrays;
                     ++a)
                  box[j * shape.num_reduction_arrays + a] =
                      procs[p]
                          .arrays.reduction[a][owned + slots2[j]];
            });
          }
          ctx.sync(fold[p]);
        },
        "classic-compute[" + std::to_string(p) + "]");
  }

  for (std::uint32_t p = 0; p < P; ++p) {
    fold[p] = m.add_fiber(
        p, 1 + procs[p].num_senders,
        [&, p](FiberContext& ctx) {
          ProcState& ps = procs[p];
          const auto& cs = sched.proc[p];
          const std::uint64_t sweep = ctx.activation();

          // Fold received ghost contributions into the owned block.
          for (std::uint32_t src = 0; src < P; ++src) {
            const auto& box = ps.mailbox[src];
            if (box.empty()) continue;
            const auto& offs = sched.proc[src].send_dest_offset[p];
            for (std::size_t j = 0; j < offs.size(); ++j) {
              for (std::uint32_t a = 0; a < shape.num_reduction_arrays;
                   ++a) {
                ctx.load(tags.reduction[a], offs[j]);
                ctx.charge_flops(1);
                ctx.store(tags.reduction[a], offs[j]);
                ps.arrays.reduction[a][offs[j]] +=
                    box[j * shape.num_reduction_arrays + a];
              }
            }
          }

          // Node update for the owned block; reduction offset 0.
          kernel.update_nodes(ctx, tags, cs.owned_begin, cs.owned_end, 0,
                              ps.view);

          if (collect && sweep + 1 == sweeps) {
            for (std::uint32_t a = 0; a < shape.num_reduction_arrays; ++a)
              std::copy(ps.arrays.reduction[a].begin(),
                        ps.arrays.reduction[a].begin() + cs.owned_size(),
                        result.reduction[a].begin() + cs.owned_begin);
          }

          // Replicate the refreshed node-read block.
          const std::uint64_t bbytes =
              static_cast<std::uint64_t>(cs.owned_size()) * 8 *
              std::max<std::uint32_t>(shape.num_node_read_arrays, 1);
          for (std::uint32_t q = 0; q < P; ++q) {
            if (q == p) continue;
            ctx.send(gate[q][p], bbytes, [&procs, &sched, &shape, p, q] {
              const auto& cs2 = sched.proc[p];
              for (std::uint32_t a = 0; a < shape.num_node_read_arrays; ++a)
                std::copy(procs[p].arrays.node_read[a].begin() +
                              cs2.owned_begin,
                          procs[p].arrays.node_read[a].begin() +
                              cs2.owned_end,
                          procs[q].arrays.node_read[a].begin() +
                              cs2.owned_begin);
            });
          }
          if (sweep + 1 < sweeps) ctx.sync(compute[p]);
        },
        "classic-fold[" + std::to_string(p) + "]");
  }

  if (P > 1) {
    for (std::uint32_t p = 0; p < P; ++p)
      for (std::uint32_t q = 0; q < P; ++q) {
        if (q == p) continue;
        gate[p][q] = m.add_fiber(
            p, 1, [&, p](FiberContext& ctx) { ctx.sync(compute[p]); },
            "classic-gate[" + std::to_string(p) + "<-" + std::to_string(q) +
                "]");
      }
  }

  for (std::uint32_t p = 0; p < P; ++p) m.credit(compute[p], P);

  result.total_cycles = m.run();
  result.inspector_cycles = t_inspector;
  result.machine = m.stats();
  result.phases_per_proc = 1;
  for (std::uint32_t p = 0; p < P; ++p)
    result.phase_iterations.push_back(owned_iters[p].size());

  if (collect) {
    result.node_read = procs[0].arrays.node_read;
    for (std::uint32_t p = 1; p < P; ++p)
      for (std::uint32_t a = 0; a < shape.num_node_read_arrays; ++a)
        ER_ENSURES_MSG(procs[p].arrays.node_read[a] ==
                           procs[0].arrays.node_read[a],
                       "node-read replicas diverged (classic)");
  }
  for (std::uint32_t p = 0; p < P; ++p) {
    ER_ENSURES(m.fiber_activations(compute[p]) == sweeps);
    ER_ENSURES(m.fiber_activations(fold[p]) == sweeps);
  }
  return result;
}

}  // namespace earthred::core
