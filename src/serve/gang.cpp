#include "serve/gang.hpp"

#include <algorithm>

#include "md/ghosts.hpp"
#include "md/neighbor.hpp"
#include "util/error.hpp"

namespace dpmd::serve {

bool same_eval_options(const dp::EvalOptions& a, const dp::EvalOptions& b) {
  // block_size is intentionally ignored: the gang sweep chooses its own M.
  return a.precision == b.precision && a.fitting_gemm == b.fitting_gemm &&
         a.fitting_precision == b.fitting_precision &&
         a.compressed == b.compressed &&
         a.compression_bins == b.compression_bins &&
         a.compression_s_max == b.compression_s_max &&
         a.packed_gemm == b.packed_gemm;
}

void merge_env_batches(const dp::AtomEnvBatch* const* parts, int nparts,
                       const int* atom_base, dp::AtomEnvBatch& out) {
  DPMD_REQUIRE(nparts > 0, "merge_env_batches: empty part list");
  const int ntypes = parts[0]->ntypes;
  int natoms = 0;
  bool any_active = false;
  std::vector<int> slot_base(static_cast<std::size_t>(nparts));
  for (int p = 0; p < nparts; ++p) {
    DPMD_REQUIRE(parts[p]->ntypes == ntypes,
                 "merge_env_batches: parts disagree on ntypes");
    slot_base[static_cast<std::size_t>(p)] = natoms;
    natoms += parts[p]->natoms;
    if (!parts[p]->seg_active.empty()) any_active = true;
  }

  out.clear();
  out.ntypes = ntypes;
  out.natoms = natoms;

  // --- center slots, part-major (merged slot = slot_base[p] + a) ----------
  out.center_index.reserve(static_cast<std::size_t>(natoms));
  out.center_type.reserve(static_cast<std::size_t>(natoms));
  for (int p = 0; p < nparts; ++p) {
    const auto& part = *parts[p];
    for (int a = 0; a < part.natoms; ++a) {
      out.center_index.push_back(atom_base[p] +
                                 part.center_index[static_cast<std::size_t>(a)]);
      out.center_type.push_back(part.center_type[static_cast<std::size_t>(a)]);
    }
  }

  // --- fitting order: stable counting sort of slots by center type --------
  out.fit_type_offset.assign(static_cast<std::size_t>(ntypes) + 1, 0);
  for (int s = 0; s < natoms; ++s) {
    ++out.fit_type_offset[static_cast<std::size_t>(
        out.center_type[static_cast<std::size_t>(s)]) + 1];
  }
  for (int t = 0; t < ntypes; ++t) {
    out.fit_type_offset[static_cast<std::size_t>(t) + 1] +=
        out.fit_type_offset[static_cast<std::size_t>(t)];
  }
  out.fit_order.resize(static_cast<std::size_t>(natoms));
  out.fit_pos.resize(static_cast<std::size_t>(natoms));
  std::vector<int> cursor(out.fit_type_offset.begin(),
                          out.fit_type_offset.end() - 1);
  for (int s = 0; s < natoms; ++s) {
    const int t = out.center_type[static_cast<std::size_t>(s)];
    const int pos = cursor[static_cast<std::size_t>(t)]++;
    out.fit_order[static_cast<std::size_t>(pos)] = s;
    out.fit_pos[static_cast<std::size_t>(s)] = pos;
  }

  // --- packed rows: type-major, part-minor, slot order preserved ----------
  out.type_offset.assign(static_cast<std::size_t>(ntypes) + 1, 0);
  for (int t = 0; t < ntypes; ++t) {
    int rows_t = 0;
    for (int p = 0; p < nparts; ++p) {
      rows_t += parts[p]->type_offset[static_cast<std::size_t>(t) + 1] -
                parts[p]->type_offset[static_cast<std::size_t>(t)];
    }
    out.type_offset[static_cast<std::size_t>(t) + 1] =
        out.type_offset[static_cast<std::size_t>(t)] + rows_t;
  }
  const int total_rows = out.type_offset[static_cast<std::size_t>(ntypes)];
  out.row_slot.resize(static_cast<std::size_t>(total_rows));
  out.nbr_index.resize(static_cast<std::size_t>(total_rows));
  out.rmat.resize(static_cast<std::size_t>(total_rows) * 4);
  out.drmat.resize(static_cast<std::size_t>(total_rows) * 12);
  out.rel.resize(static_cast<std::size_t>(total_rows));
  out.seg_offset.assign(static_cast<std::size_t>(ntypes) * natoms + 1, 0);
  if (any_active) {
    out.seg_active.assign(static_cast<std::size_t>(ntypes) * natoms, 0);
  }

  // Segments are visited in exactly the merged (type, slot) order, so the
  // cumulative row cursor doubles as seg_offset.  Row values are copied
  // verbatim — a merged row is bit-identical to its source row.
  int row = 0;
  std::size_t seg = 0;
  for (int t = 0; t < ntypes; ++t) {
    for (int p = 0; p < nparts; ++p) {
      const auto& part = *parts[p];
      for (int a = 0; a < part.natoms; ++a) {
        const int plo =
            part.seg_offset[static_cast<std::size_t>(t) * part.natoms + a];
        const int phi =
            part.seg_offset[static_cast<std::size_t>(t) * part.natoms + a + 1];
        for (int r = plo; r < phi; ++r, ++row) {
          std::copy_n(part.rmat.data() + static_cast<std::size_t>(r) * 4, 4,
                      out.rmat.data() + static_cast<std::size_t>(row) * 4);
          std::copy_n(part.drmat.data() + static_cast<std::size_t>(r) * 12, 12,
                      out.drmat.data() + static_cast<std::size_t>(row) * 12);
          out.rel[static_cast<std::size_t>(row)] =
              part.rel[static_cast<std::size_t>(r)];
          out.row_slot[static_cast<std::size_t>(row)] =
              slot_base[static_cast<std::size_t>(p)] +
              part.row_slot[static_cast<std::size_t>(r)];
          out.nbr_index[static_cast<std::size_t>(row)] =
              atom_base[p] + part.nbr_index[static_cast<std::size_t>(r)];
        }
        if (any_active) out.seg_active[seg] = part.active_rows(t, a);
        ++seg;
        out.seg_offset[seg] = row;
      }
    }
  }
  DPMD_REQUIRE(row == total_rows, "merge_env_batches: row count mismatch");
}

namespace {

/// One score job prepared for evaluation: wrapped locals, periodic-image
/// ghosts, a full rcut list (skin 0 — single-shot evaluation) and its
/// packed batch over ALL locals (one batch per job, merged below).
struct PreparedScore {
  md::Atoms atoms;
  std::unique_ptr<md::NeighborList> list;
  dp::AtomEnvBatch batch;
};

void prepare_score(const JobSpec& spec, const dp::ModelConfig& cfg,
                   PreparedScore& p) {
  const std::size_t n = spec.x.size();
  DPMD_REQUIRE(n > 0, "score job with no atoms");
  DPMD_REQUIRE(spec.type.size() == n, "score job: type/x size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    Vec3 pos = spec.x[i];
    spec.box.wrap(pos);
    p.atoms.add_local(pos, Vec3{0, 0, 0}, spec.type[i],
                      static_cast<std::int64_t>(i) + 1);
  }
  const double rcut = cfg.descriptor.rcut;
  md::build_periodic_ghosts(p.atoms, spec.box, rcut);
  p.list = std::make_unique<md::NeighborList>(
      md::NeighborList::Config{rcut, 0.0, true});
  p.list->build(p.atoms, spec.box);
  dp::build_env_batch(p.atoms, *p.list, 0, p.atoms.nlocal, cfg.descriptor,
                      cfg.ntypes, p.batch);
}

}  // namespace

void score_jobs(const std::vector<const JobSpec*>& jobs,
                const std::shared_ptr<const dp::ModelPack>& pack,
                int gang_block, JobArena* arena,
                std::vector<ScoreOutput>& out,
                const rt::StopToken& stop) {
  const int njobs = static_cast<int>(jobs.size());
  out.assign(static_cast<std::size_t>(njobs), ScoreOutput{});
  if (njobs == 0) return;
  DPMD_REQUIRE(gang_block >= 1, "gang_block must be >= 1");
  const dp::ModelConfig& cfg = pack->model().config();
  const dp::EvalOptions& opts = jobs[0]->opts;

  // One evaluator for the whole run: construction is cheap now (the pack is
  // shared — no table build, no weight cast), and a single serial evaluator
  // makes the sweep deterministic.
  dp::DPEvaluator ev(pack, opts);

  tofu::BumpArena local_arena(std::size_t{1} << 20);
  tofu::BumpArena& ar = arena != nullptr ? arena->arena() : local_arena;

  // Evaluator interface scratch (std::vector by API).
  std::vector<double> eblk;
  std::vector<Vec3> dedd;

  int j = 0;
  while (j < njobs) {
    stop.check("score gang");  // gangs are the cancellation atom
    // Greedy gang: consecutive jobs until the merged center count reaches
    // gang_block.  A job big enough on its own forms a gang of one.
    int k = j;
    int centers = 0;
    while (k < njobs && centers < gang_block) {
      centers += static_cast<int>(jobs[static_cast<std::size_t>(k)]->x.size());
      ++k;
    }
    const int gn = k - j;

    {
      std::vector<PreparedScore> prep(static_cast<std::size_t>(gn));
      std::vector<int> atom_base(static_cast<std::size_t>(gn));
      int total_atoms = 0;
      for (int g = 0; g < gn; ++g) {
        prepare_score(*jobs[static_cast<std::size_t>(j + g)], cfg,
                      prep[static_cast<std::size_t>(g)]);
        atom_base[static_cast<std::size_t>(g)] = total_atoms;
        total_atoms += prep[static_cast<std::size_t>(g)].atoms.ntotal();
      }

      // The merged (or lone) batch this gang evaluates.
      dp::AtomEnvBatch merged;
      const dp::AtomEnvBatch* evalb = &prep[0].batch;
      if (gn > 1) {
        std::vector<const dp::AtomEnvBatch*> parts(
            static_cast<std::size_t>(gn));
        for (int g = 0; g < gn; ++g) {
          parts[static_cast<std::size_t>(g)] =
              &prep[static_cast<std::size_t>(g)].batch;
        }
        merge_env_batches(parts.data(), gn, atom_base.data(), merged);
        evalb = &merged;
      }
      ev.evaluate_batch(*evalb, eblk, dedd);

      // Job-scoped scratch lives in the arena: reclaimed wholesale below.
      JobArena::Vec<Vec3> fbuf{tofu::ArenaAllocator<Vec3>(ar)};
      fbuf.assign(static_cast<std::size_t>(total_atoms), Vec3{0, 0, 0});
      JobArena::Vec<int> slot_job{tofu::ArenaAllocator<int>(ar)};
      slot_job.reserve(static_cast<std::size_t>(evalb->natoms));
      for (int g = 0; g < gn; ++g) {
        for (int a = 0; a < prep[static_cast<std::size_t>(g)].batch.natoms;
             ++a) {
          slot_job.push_back(g);
        }
      }

      for (int g = 0; g < gn; ++g) {
        auto& O = out[static_cast<std::size_t>(j + g)];
        O.gang_size = gn;
        O.per_atom_energy.assign(
            static_cast<std::size_t>(
                prep[static_cast<std::size_t>(g)].atoms.nlocal),
            0.0);
      }

      // Energies per merged center slot.
      for (int s = 0; s < evalb->natoms; ++s) {
        const int g = slot_job[static_cast<std::size_t>(s)];
        auto& O = out[static_cast<std::size_t>(j + g)];
        const int i = evalb->center_index[static_cast<std::size_t>(s)] -
                      atom_base[static_cast<std::size_t>(g)];
        O.per_atom_energy[static_cast<std::size_t>(i)] =
            eblk[static_cast<std::size_t>(s)];
        O.energy += eblk[static_cast<std::size_t>(s)];
      }

      // Serial force deposit over the merged rows (deterministic), virial
      // attributed to the owning center's job.
      const int rows = evalb->rows();
      for (int r = 0; r < rows; ++r) {
        const Vec3& grad = dedd[static_cast<std::size_t>(r)];
        const int slot = evalb->row_slot[static_cast<std::size_t>(r)];
        const int jj = evalb->nbr_index[static_cast<std::size_t>(r)];
        const int ii = evalb->center_index[static_cast<std::size_t>(slot)];
        fbuf[static_cast<std::size_t>(jj)] -= grad;
        fbuf[static_cast<std::size_t>(ii)] += grad;
        out[static_cast<std::size_t>(j + slot_job[static_cast<std::size_t>(
                                         slot)])].virial -=
            dot(evalb->rel[static_cast<std::size_t>(r)], grad);
      }

      // Fold ghost forces into parents and copy each job's local forces out
      // of the arena (results must outlive the reset).
      for (int g = 0; g < gn; ++g) {
        auto& O = out[static_cast<std::size_t>(j + g)];
        const auto& A = prep[static_cast<std::size_t>(g)].atoms;
        const int base = atom_base[static_cast<std::size_t>(g)];
        for (int gh = 0; gh < A.nghost; ++gh) {
          fbuf[static_cast<std::size_t>(
              base + A.ghost_parent[static_cast<std::size_t>(gh)])] +=
              fbuf[static_cast<std::size_t>(base + A.nlocal + gh)];
        }
        O.forces.assign(fbuf.begin() + base, fbuf.begin() + base + A.nlocal);
      }
    }
    // Gang scratch is dead; reclaim its arena storage in one sweep.
    ar.reset();
    j = k;
  }
}

}  // namespace dpmd::serve
