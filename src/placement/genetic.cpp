#include "placement/genetic.h"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace ropus::placement {
namespace {

// The operators' fixed settings; kVacateRate is the chance that a feasible
// child's mutation tries to empty a server.
constexpr std::size_t kTournament = 3;
constexpr std::size_t kElite = 2;
constexpr double kCrossoverRate = 0.9;
constexpr double kGeneMutationRate = 0.02;
constexpr double kVacateRate = 0.6;

}  // namespace

void GeneticConfig::validate() const {
  ROPUS_REQUIRE(population >= kTournament && population > kElite,
                "population must be >= 3");
  ROPUS_REQUIRE(max_generations >= 1, "need at least one generation");
  ROPUS_REQUIRE(stagnation_limit >= 1, "stagnation limit must be >= 1");
}

namespace {

struct Individual {
  Assignment genes;
  PlacementEvaluation eval;
  double fitness = 0.0;  // eval.score minus any migration penalty
};

/// Fitness = objective score minus the churn penalty against the reference
/// configuration (when configured).
double fitness_of(const Assignment& genes, const PlacementEvaluation& eval,
                  const GeneticConfig& config) {
  double fitness = eval.score;
  if (config.migration_penalty > 0.0 &&
      config.migration_reference.has_value()) {
    std::size_t moves = 0;
    const Assignment& ref = *config.migration_reference;
    for (std::size_t w = 0; w < genes.size(); ++w) {
      if (genes[w] != ref[w]) ++moves;
    }
    fitness -= config.migration_penalty * static_cast<double>(moves);
  }
  return fitness;
}

/// Migrates every workload off one server, choosing the victim with
/// probability proportional to 1 - f(U) (low-scoring servers are evicted
/// first, per the paper), and respreads its workloads over other used
/// servers; tends to reduce the used-server count by one.
void vacate_mutation(const PlacementProblem& problem, Assignment& genes,
                     const PlacementEvaluation& eval, Rng& rng) {
  std::vector<std::size_t> used;
  std::vector<double> weights;
  for (std::size_t s = 0; s < eval.servers.size(); ++s) {
    if (!eval.servers[s].used) continue;
    used.push_back(s);
    // Overbooked servers get the maximum eviction weight.
    const double f = eval.servers[s].fits ? eval.servers[s].score : 0.0;
    weights.push_back(1.0 - std::clamp(f, 0.0, 1.0) + 1e-3);
  }
  if (used.size() < 2) return;  // nowhere to migrate to

  double total = 0.0;
  for (double w : weights) total += w;
  double pick = rng.uniform(0.0, total);
  std::size_t victim = used.back();
  for (std::size_t k = 0; k < used.size(); ++k) {
    pick -= weights[k];
    if (pick <= 0.0) {
      victim = used[k];
      break;
    }
  }

  std::vector<std::size_t> targets;
  for (std::size_t s : used) {
    if (s != victim) targets.push_back(s);
  }
  for (std::size_t w = 0; w < genes.size(); ++w) {
    if (genes[w] == victim) {
      genes[w] = targets[rng.uniform_index(targets.size())];
    }
  }
  (void)problem;
}

/// Repairs infeasibility: moves one random workload off each overbooked
/// server onto a uniformly random other server. Applied instead of the
/// vacate step when the child is infeasible, so the search can climb back
/// from a bad configuration instead of only packing tighter.
void relief_mutation(const PlacementProblem& problem, Assignment& genes,
                     const PlacementEvaluation& eval, Rng& rng) {
  if (problem.server_count() < 2) return;
  for (std::size_t s = 0; s < eval.servers.size(); ++s) {
    const ServerEvaluation& se = eval.servers[s];
    if (!se.used || se.fits || se.workloads.empty()) continue;
    const std::size_t victim =
        se.workloads[rng.uniform_index(se.workloads.size())];
    std::size_t target = rng.uniform_index(problem.server_count() - 1);
    if (target >= s) ++target;  // any server but the overbooked one
    genes[victim] = target;
  }
}

void gene_mutation(const PlacementProblem& problem, Assignment& genes,
                   double rate, Rng& rng) {
  for (std::size_t w = 0; w < genes.size(); ++w) {
    if (rng.bernoulli(rate)) {
      genes[w] = rng.uniform_index(problem.server_count());
    }
  }
}

Assignment crossover(const Assignment& a, const Assignment& b, Rng& rng) {
  Assignment child(a.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    child[w] = rng.bernoulli(0.5) ? a[w] : b[w];
  }
  return child;
}

const Individual& tournament_select(const std::vector<Individual>& pop,
                                    std::size_t rounds, Rng& rng) {
  const Individual* best = &pop[rng.uniform_index(pop.size())];
  for (std::size_t i = 1; i < rounds; ++i) {
    const Individual& challenger = pop[rng.uniform_index(pop.size())];
    if (challenger.fitness > best->fitness) best = &challenger;
  }
  return *best;
}

}  // namespace

GeneticResult genetic_search(const PlacementProblem& problem,
                             const Assignment& initial,
                             const GeneticConfig& config) {
  const std::vector<Assignment> seeds{initial};
  return genetic_search(problem, seeds, config);
}

GeneticResult genetic_search(const PlacementProblem& problem,
                             std::span<const Assignment> seeds,
                             const GeneticConfig& config) {
  // Solver-effort metrics: how many generations and candidate evaluations
  // a search costs, and how long it runs end to end.
  static obs::Counter& searches = obs::counter("placement.genetic.searches");
  static obs::Counter& generations_total =
      obs::counter("placement.genetic.generations");
  static obs::Counter& evaluations =
      obs::counter("placement.genetic.evaluations");
  static obs::Histogram& search_seconds =
      obs::histogram("placement.genetic.search_seconds");
  searches.add(1);
  obs::ScopedSpan span("placement.genetic_search");
  obs::ScopedTimer timer(search_seconds);

  config.validate();
  ROPUS_REQUIRE(!seeds.empty(), "genetic search needs at least one seed");
  for (const Assignment& seed : seeds) {
    validate_assignment(seed, problem.workload_count(),
                        problem.server_count());
  }
  if (config.migration_reference.has_value()) {
    validate_assignment(*config.migration_reference,
                        problem.workload_count(), problem.server_count());
  }
  Rng rng(config.seed);

  // Evaluations shard across the process thread pool. Determinism: all
  // master-rng draws (selection, crossover, per-child mutation seeds)
  // happen sequentially before dispatch, each child mutates under its own
  // seeded stream, and results land in index-addressed slots — so the
  // search returns the same result at any --threads value.
  const std::size_t threads = parallel::thread_count();

  // Evaluations run through per-worker delta contexts: a context
  // re-verdicts only the servers an assignment changed relative to the last
  // one it saw, and all contexts share the problem's required-capacity
  // memo. parallel::for_each_index does not expose a worker id, so each
  // task leases a context from the problem's pool; a worker usually gets
  // its context back task after task, which keeps the engine's state warm.
  std::size_t evals = 0;  // batched into the evaluations counter on return
  auto finish = [&config](DeltaPlacementContext& ctx, Assignment genes) {
    Individual ind;
    ind.genes = std::move(genes);
    ind.eval = ctx.evaluate(ind.genes);
    ind.fitness = fitness_of(ind.genes, ind.eval, config);
    return ind;
  };

  std::vector<Assignment> founders;
  founders.reserve(config.population);
  for (const Assignment& seed : seeds) {
    if (founders.size() == config.population) break;
    founders.push_back(seed);
  }
  while (founders.size() < config.population) {
    Assignment genes = seeds[founders.size() % seeds.size()];
    gene_mutation(problem, genes, 0.2, rng);
    founders.push_back(std::move(genes));
  }
  std::vector<Individual> population(founders.size());
  parallel::for_each_index(founders.size(), threads, [&](std::size_t i) {
    ContextLease ctx(problem);
    population[i] = finish(*ctx, std::move(founders[i]));
  });
  evals += population.size();

  GeneticResult result;
  result.best = population.front().genes;
  result.evaluation = population.front().eval;
  result.found_feasible = result.evaluation.feasible;
  double best_fitness = population.front().fitness;

  auto consider = [&result, &best_fitness](const Individual& ind) {
    if (ind.eval.feasible &&
        (!result.found_feasible || ind.fitness > best_fitness)) {
      result.best = ind.genes;
      result.evaluation = ind.eval;
      best_fitness = ind.fitness;
      result.found_feasible = true;
    } else if (!result.found_feasible && ind.fitness > best_fitness) {
      result.best = ind.genes;
      result.evaluation = ind.eval;
      best_fitness = ind.fitness;
    }
  };
  for (const Individual& ind : population) consider(ind);

  double best_seen = best_fitness;
  std::size_t stagnant = 0;

  for (std::size_t gen = 0; gen < config.max_generations; ++gen) {
    result.generations = gen + 1;

    // Elitism: carry the strongest individuals over unchanged.
    std::sort(population.begin(), population.end(),
              [](const Individual& x, const Individual& y) {
                return x.fitness > y.fitness;
              });
    std::vector<Individual> next;
    next.reserve(config.population);
    for (std::size_t e = 0; e < kElite; ++e) next.push_back(population[e]);

    // Selection and crossover draw from the master rng sequentially (they
    // depend only on the parent generation's fitness); each child then gets
    // its own derived mutation stream so the shape-aware mutation chain —
    // which needs the child's evaluation — can run sharded without making
    // the draw sequence depend on evaluation order.
    const std::size_t offspring = config.population - next.size();
    std::vector<Assignment> child_genes(offspring);
    std::vector<std::uint64_t> child_seeds(offspring);
    for (std::size_t c = 0; c < offspring; ++c) {
      if (rng.bernoulli(kCrossoverRate)) {
        const Individual& pa =
            tournament_select(population, kTournament, rng);
        const Individual& pb =
            tournament_select(population, kTournament, rng);
        child_genes[c] = crossover(pa.genes, pb.genes, rng);
      } else {
        child_genes[c] =
            tournament_select(population, kTournament, rng).genes;
      }
      child_seeds[c] = rng.derive_seed();
    }

    std::vector<Individual> children(offspring);
    parallel::for_each_index(offspring, threads, [&](std::size_t c) {
      ContextLease ctx(problem);
      Assignment genes = std::move(child_genes[c]);
      Rng child_rng(child_seeds[c]);
      // Shape-aware mutation needs the child's evaluation; the mutation
      // then only moves a few genes, so the post-mutation evaluation in
      // finish() is a near-pure delta on the same context.
      const PlacementEvaluation pre = ctx->evaluate(genes);
      if (!pre.feasible) {
        relief_mutation(problem, genes, pre, child_rng);
      } else if (child_rng.bernoulli(kVacateRate)) {
        vacate_mutation(problem, genes, pre, child_rng);
      }
      gene_mutation(problem, genes, kGeneMutationRate, child_rng);
      children[c] = finish(*ctx, std::move(genes));
    });
    evals += 2 * offspring;

    for (Individual& child : children) {
      consider(child);
      next.push_back(std::move(child));
    }
    population = std::move(next);

    if (best_fitness > best_seen + 1e-12) {
      best_seen = best_fitness;
      stagnant = 0;
    } else if (++stagnant >= config.stagnation_limit) {
      ROPUS_LOG(kInfo) << "genetic search stagnated after " << gen + 1
                       << " generations (score " << best_seen << ")";
      break;
    }
  }
  generations_total.add(result.generations);
  evaluations.add(evals);
  return result;
}

}  // namespace ropus::placement
