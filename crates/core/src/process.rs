//! Match processing (paper, Section 3, Figure 2): matcher execution over
//! the similarity cube, combination into a match result, optional user
//! interaction across iterations.

use crate::combine::{CombinationStrategy, DirectedCandidates};
use crate::cube::SimCube;
use crate::engine::{EngineConfig, MatchPlan, PlanEngine, PlanOutcome};
use crate::error::{CoreError, Result};
use crate::matchers::context::{Auxiliary, MatchContext};
use crate::matchers::feedback::Feedback;
use crate::matchers::MatcherLibrary;
use crate::result::MatchResult;
use coma_graph::{PathSet, Schema};
use coma_repo::{MappingKind, Repository, StoredCube};
use serde::{Deserialize, Serialize};

/// A match strategy: which matchers to execute and how to combine their
/// results. "COMA thus allows us to tailor match strategies by selecting
/// the match algorithms and their combination for a given match problem"
/// (Section 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchStrategy {
    /// Library names of the matchers to execute.
    pub matchers: Vec<String>,
    /// The combination strategy for the final step.
    pub combination: CombinationStrategy,
}

/// The five hybrid no-reuse matchers whose combination the paper calls
/// `All` (Section 7.2).
pub const ALL_HYBRIDS: [&str; 5] = ["Name", "NamePath", "TypeName", "Children", "Leaves"];

impl MatchStrategy {
    /// The paper's default operation: the `All` combination of the five
    /// hybrid matchers with `(Average, Both, Threshold(0.5)+Delta(0.02))`.
    pub fn paper_default() -> MatchStrategy {
        MatchStrategy {
            matchers: ALL_HYBRIDS.iter().map(|s| s.to_string()).collect(),
            combination: CombinationStrategy::paper_default(),
        }
    }

    /// A strategy executing the given matchers with the default
    /// combination.
    pub fn with_matchers<S: Into<String>>(matchers: impl IntoIterator<Item = S>) -> MatchStrategy {
        MatchStrategy {
            matchers: matchers.into_iter().map(Into::into).collect(),
            combination: CombinationStrategy::paper_default(),
        }
    }

    /// Builder-style combination override.
    pub fn with_combination(mut self, combination: CombinationStrategy) -> MatchStrategy {
        self.combination = combination;
        self
    }

    /// The equivalent one-stage [`MatchPlan`]: a strategy is the
    /// degenerate plan `Matchers(matchers)[combination]`.
    pub fn into_plan(self) -> MatchPlan {
        MatchPlan::from(self)
    }
}

impl Default for MatchStrategy {
    fn default() -> Self {
        MatchStrategy::paper_default()
    }
}

/// The outcome of one match operation: the combined result plus the
/// underlying similarity cube (kept for inspection, storage and re-combination).
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// The combined match result.
    pub result: MatchResult,
    /// The `k × m × n` cube of matcher-specific similarities.
    pub cube: SimCube,
}

/// The COMA system: a matcher library, auxiliary information, and the
/// repository of schemas and previous match results.
pub struct Coma {
    library: MatcherLibrary,
    aux: Auxiliary,
    repository: Repository,
}

impl Coma {
    /// A COMA instance with the standard library and auxiliary tables and
    /// an empty repository.
    pub fn new() -> Coma {
        Coma {
            library: MatcherLibrary::standard(),
            aux: Auxiliary::standard(),
            repository: Repository::new(),
        }
    }

    /// Read access to the matcher library.
    pub fn library(&self) -> &MatcherLibrary {
        &self.library
    }

    /// Mutable access to the matcher library (to register custom matchers).
    pub fn library_mut(&mut self) -> &mut MatcherLibrary {
        &mut self.library
    }

    /// Read access to the auxiliary information.
    pub fn aux(&self) -> &Auxiliary {
        &self.aux
    }

    /// Mutable access to the auxiliary information (synonyms, feedback, …).
    pub fn aux_mut(&mut self) -> &mut Auxiliary {
        &mut self.aux
    }

    /// Read access to the repository.
    pub fn repository(&self) -> &Repository {
        &self.repository
    }

    /// Mutable access to the repository.
    pub fn repository_mut(&mut self) -> &mut Repository {
        &mut self.repository
    }

    /// Executes the named matchers on a prepared context, producing the
    /// similarity cube (the "matcher execution" phase of Figure 2).
    pub fn execute_matchers(&self, ctx: &MatchContext<'_>, names: &[String]) -> Result<SimCube> {
        let mut cube = SimCube::new();
        for name in names {
            let matcher = self
                .library
                .get(name)
                .ok_or_else(|| CoreError::UnknownMatcher(name.clone()))?;
            cube.push(name.clone(), matcher.compute(ctx));
        }
        Ok(cube)
    }

    /// Combines a similarity cube into a match result (the "combination of
    /// match results" phase): aggregation, feedback pinning, direction +
    /// selection, schema similarity.
    pub fn combine_cube(
        &self,
        cube: &SimCube,
        ctx: &MatchContext<'_>,
        combination: &CombinationStrategy,
    ) -> MatchResult {
        combine_cube_with_feedback(cube, ctx, combination, &self.aux.feedback)
    }

    /// Runs a complete automatic match operation on two schemas.
    ///
    /// Since the plan-engine refactor this executes the strategy's
    /// one-stage plan: independent matchers run in parallel and shared
    /// work is memoized, with results identical to the legacy sequential
    /// pipeline ([`Coma::execute_matchers`] + [`Coma::combine_cube`]).
    pub fn match_schemas(
        &self,
        source: &Schema,
        target: &Schema,
        strategy: &MatchStrategy,
    ) -> Result<MatchOutcome> {
        Ok(self
            .match_plan(source, target, &MatchPlan::from(strategy))?
            .into_outcome())
    }

    /// Runs an arbitrary [`MatchPlan`] on two schemas — the plan-aware
    /// counterpart of [`Coma::match_schemas`], for staged processes like
    /// `Seq(name filter → structural refine)` that a flat strategy cannot
    /// express.
    pub fn match_plan(
        &self,
        source: &Schema,
        target: &Schema,
        plan: &MatchPlan,
    ) -> Result<PlanOutcome> {
        self.match_plan_with(EngineConfig::default(), source, target, plan)
    }

    /// Like [`Coma::match_plan`], but with an explicit [`EngineConfig`]
    /// — the entry point for callers that tune the engine (parallelism,
    /// sharding, the sparse path, fused pruning, density/shard-size
    /// thresholds) instead of taking the defaults.
    pub fn match_plan_with(
        &self,
        cfg: EngineConfig,
        source: &Schema,
        target: &Schema,
        plan: &MatchPlan,
    ) -> Result<PlanOutcome> {
        self.in_task(source, target, |ctx| {
            PlanEngine::with_config(&self.library, cfg).execute(ctx, plan)
        })
    }

    /// Like [`Coma::match_schemas`], but additionally stores the schemas,
    /// the similarity cube and the resulting mapping in the repository for
    /// later reuse (the paper's standard mode of operation).
    ///
    /// The path sets and context are prepared once for the whole
    /// operation (matching, mapping conversion and cube storage).
    pub fn match_and_store(
        &mut self,
        source: &Schema,
        target: &Schema,
        strategy: &MatchStrategy,
    ) -> Result<MatchResult> {
        let (result, mapping, stored) = self.in_task(source, target, |ctx| {
            let plan = MatchPlan::from(strategy);
            let outcome = PlanEngine::new(&self.library).execute(ctx, &plan)?;
            let MatchOutcome { result, cube } = outcome.into_outcome();
            let mapping = result.to_mapping(ctx, MappingKind::Automatic);
            Ok((result, mapping, stored_cube(&cube, ctx)))
        })?;
        self.repository.put_schema(source.clone());
        self.repository.put_schema(target.clone());
        self.repository.put_cube(stored);
        self.repository.put_mapping(mapping);
        Ok(result)
    }

    /// Runs `run` on the match task between `source` and `target`: their
    /// path sets, prepared once, under this instance's auxiliary tables
    /// and repository.
    fn in_task<T>(
        &self,
        source: &Schema,
        target: &Schema,
        run: impl FnOnce(&MatchContext<'_>) -> Result<T>,
    ) -> Result<T> {
        let source_paths = PathSet::new(source)?;
        let target_paths = PathSet::new(target)?;
        let ctx = MatchContext::new(source, target, &source_paths, &target_paths, &self.aux)
            .with_repository(&self.repository);
        run(&ctx)
    }
}

impl Default for Coma {
    fn default() -> Self {
        Coma::new()
    }
}

/// Converts an in-memory cube into the repository's storage form (a dense
/// row-major value block, whatever storage the in-memory slices use).
pub fn stored_cube(cube: &SimCube, ctx: &MatchContext<'_>) -> StoredCube {
    let mut values = Vec::with_capacity(cube.len() * cube.rows() * cube.cols());
    let mut row = vec![0.0; cube.cols()];
    for k in 0..cube.len() {
        for i in 0..cube.rows() {
            cube.slice(k).copy_row_into(i, &mut row);
            values.extend_from_slice(&row);
        }
    }
    StoredCube {
        source_schema: ctx.source.name().to_string(),
        target_schema: ctx.target.name().to_string(),
        matchers: cube.matcher_names().to_vec(),
        source_paths: (0..ctx.rows()).map(|i| ctx.source_full_name(i)).collect(),
        target_paths: (0..ctx.cols()).map(|j| ctx.target_full_name(j)).collect(),
        values,
    }
}

/// The combination pipeline with explicit feedback (used directly by the
/// evaluation harness, which re-combines cached cubes under many
/// strategies).
pub fn combine_cube_with_feedback(
    cube: &SimCube,
    ctx: &MatchContext<'_>,
    combination: &CombinationStrategy,
    feedback: &Feedback,
) -> MatchResult {
    let mut matrix = combination.aggregation.aggregate(cube);
    feedback.pin(&mut matrix, ctx);
    let candidates =
        DirectedCandidates::select(&matrix, combination.direction, &combination.selection);
    let schema_similarity =
        combination
            .combined_sim
            .compute(&candidates, matrix.rows(), matrix.cols());
    MatchResult::from_pairs(ctx, candidates.pairs(), Some(schema_similarity))
}

/// An interactive match session (Figure 2): iterations of matcher
/// execution and combination, with user feedback in between.
///
/// "In interactive mode, the user can interact with COMA for each iteration
/// to specify the match strategy […], define match or mismatch
/// relationships, and accept or reject match candidates proposed in the
/// previous iteration."
pub struct MatchSession<'a> {
    coma: &'a Coma,
    source: &'a Schema,
    target: &'a Schema,
    source_paths: PathSet,
    target_paths: PathSet,
    /// The strategy for the next iteration — may be changed between
    /// iterations.
    pub strategy: MatchStrategy,
    feedback: Feedback,
    iterations: Vec<MatchResult>,
}

impl<'a> MatchSession<'a> {
    /// Opens a session for one match task.
    pub fn new(
        coma: &'a Coma,
        source: &'a Schema,
        target: &'a Schema,
        strategy: MatchStrategy,
    ) -> Result<MatchSession<'a>> {
        Ok(MatchSession {
            coma,
            source,
            target,
            source_paths: PathSet::new(source)?,
            target_paths: PathSet::new(target)?,
            strategy,
            feedback: coma.aux().feedback.clone(),
            iterations: Vec::new(),
        })
    }

    /// Accepts a proposed candidate (by dotted full names) as a match.
    pub fn accept(&mut self, source_path: &str, target_path: &str) {
        self.feedback.add_match(source_path, target_path);
    }

    /// Rejects a proposed candidate as a mismatch.
    pub fn reject(&mut self, source_path: &str, target_path: &str) {
        self.feedback.add_mismatch(source_path, target_path);
    }

    /// The accumulated session feedback.
    pub fn feedback(&self) -> &Feedback {
        &self.feedback
    }

    /// Runs one match iteration with the current strategy and feedback.
    pub fn run_iteration(&mut self) -> Result<&MatchResult> {
        // The session's feedback overrides the system-wide feedback.
        let mut aux = self.coma.aux().clone();
        aux.feedback = self.feedback.clone();
        let ctx = MatchContext::new(
            self.source,
            self.target,
            &self.source_paths,
            &self.target_paths,
            &aux,
        )
        .with_repository(self.coma.repository());
        let plan = MatchPlan::from(&self.strategy);
        let outcome = PlanEngine::new(self.coma.library()).execute(&ctx, &plan)?;
        self.iterations.push(outcome.result);
        Ok(self.iterations.last().expect("just pushed"))
    }

    /// The most recent iteration's result.
    pub fn last(&self) -> Option<&MatchResult> {
        self.iterations.last()
    }

    /// Number of iterations run so far.
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::{Aggregation, Direction, Selection};
    use crate::matchers::synonym::SynonymTable;

    fn po1() -> Schema {
        coma_sql::import_ddl(
            "CREATE TABLE PO1.ShipTo (
                 poNo INT,
                 custNo INT REFERENCES PO1.Customer,
                 shipToStreet VARCHAR(200), shipToCity VARCHAR(200), shipToZip VARCHAR(20),
                 PRIMARY KEY (poNo));
             CREATE TABLE PO1.Customer (
                 custNo INT, custName VARCHAR(200), custStreet VARCHAR(200),
                 custCity VARCHAR(200), custZip VARCHAR(20),
                 PRIMARY KEY (custNo));",
            "PO1",
        )
        .unwrap()
    }

    fn po2() -> Schema {
        coma_xml::import_xsd(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="PO2">
    <xsd:sequence>
      <xsd:element name="DeliverTo" type="Address"/>
      <xsd:element name="BillTo" type="Address"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Address">
    <xsd:sequence>
      <xsd:element name="Street" type="xsd:string"/>
      <xsd:element name="City" type="xsd:string"/>
      <xsd:element name="Zip" type="xsd:decimal"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>"#,
            "PO2",
        )
        .unwrap()
    }

    fn coma() -> Coma {
        let mut c = Coma::new();
        c.aux_mut().synonyms = SynonymTable::purchase_order();
        c
    }

    /// The Section 3 running example (Tables 1 and 2): combining TypeName
    /// and NamePath with Average aggregation selects PO1.ShipTo.shipToCity
    /// as the match candidate of PO2.DeliverTo.Address.City.
    #[test]
    fn default_operation_matches_ship_to_city() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let outcome = c
            .match_schemas(
                &s1,
                &s2,
                &MatchStrategy::with_matchers(["TypeName", "NamePath"]),
            )
            .unwrap();
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let city = p2
            .find_by_full_name(&s2, "PO2.DeliverTo.Address.City")
            .unwrap();
        let ship_city = p1.find_by_full_name(&s1, "PO1.ShipTo.shipToCity").unwrap();
        assert!(
            outcome.result.contains(ship_city, city),
            "expected shipToCity↔DeliverTo.Address.City among {:?}",
            outcome
                .result
                .candidates
                .iter()
                .map(|cand| format!(
                    "{}↔{}",
                    p1.full_name(&s1, cand.source),
                    p2.full_name(&s2, cand.target)
                ))
                .collect::<Vec<_>>()
        );
        assert!(outcome.result.schema_similarity.is_some());
        assert_eq!(outcome.cube.len(), 2);
    }

    #[test]
    fn unknown_matcher_is_an_error() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let err = c
            .match_schemas(&s1, &s2, &MatchStrategy::with_matchers(["Bogus"]))
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownMatcher(name) if name == "Bogus"));
    }

    #[test]
    fn match_and_store_populates_repository() {
        let mut c = coma();
        let (s1, s2) = (po1(), po2());
        let result = c
            .match_and_store(&s1, &s2, &MatchStrategy::paper_default())
            .unwrap();
        assert!(!result.is_empty());
        assert_eq!(c.repository().schema_count(), 2);
        assert_eq!(c.repository().mappings().len(), 1);
        assert_eq!(c.repository().cube_count(), 1);
        let cube = &c.repository().cubes_for("PO1", "PO2")[0];
        assert!(cube.is_consistent());
        assert_eq!(cube.matchers.len(), 5);
    }

    #[test]
    fn feedback_pins_survive_combination() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let mut session = MatchSession::new(&c, &s1, &s2, MatchStrategy::paper_default()).unwrap();
        session.run_iteration().unwrap();

        // Force an absurd match and a mismatch of the good one.
        session.accept("PO1.ShipTo.poNo", "PO2.DeliverTo.Address.Street");
        session.reject("PO1.ShipTo.shipToCity", "PO2.DeliverTo.Address.City");
        let result = session.run_iteration().unwrap();

        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let po_no = p1.find_by_full_name(&s1, "PO1.ShipTo.poNo").unwrap();
        let street = p2
            .find_by_full_name(&s2, "PO2.DeliverTo.Address.Street")
            .unwrap();
        let ship_city = p1.find_by_full_name(&s1, "PO1.ShipTo.shipToCity").unwrap();
        let city = p2
            .find_by_full_name(&s2, "PO2.DeliverTo.Address.City")
            .unwrap();
        assert_eq!(result.similarity_of(po_no, street), Some(1.0));
        assert!(!result.contains(ship_city, city));
        assert_eq!(session.iteration_count(), 2);
    }

    #[test]
    fn single_matcher_strategy_works() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let strategy =
            MatchStrategy::with_matchers(["NamePath"]).with_combination(CombinationStrategy {
                aggregation: Aggregation::Average,
                direction: Direction::Both,
                selection: Selection::max_n(1).with_threshold(0.5),
                combined_sim: crate::combine::CombinedSim::Average,
            });
        let outcome = c.match_schemas(&s1, &s2, &strategy).unwrap();
        assert!(!outcome.result.is_empty());
        // All proposed similarities exceed the 0.5 threshold.
        assert!(outcome.result.candidates.iter().all(|c| c.similarity > 0.5));
    }

    #[test]
    fn results_convert_to_mappings() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let outcome = c
            .match_schemas(&s1, &s2, &MatchStrategy::paper_default())
            .unwrap();
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux());
        let mapping = outcome.result.to_mapping(&ctx, MappingKind::Automatic);
        assert_eq!(mapping.len(), outcome.result.len());
        assert_eq!(mapping.source_schema, "PO1");
        assert!(mapping
            .correspondences
            .iter()
            .all(|cor| cor.source.starts_with("PO1") && cor.target.starts_with("PO2")));
    }
}
