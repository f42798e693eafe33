//! Collaborative document editing (paper §6).
//!
//! "On FabricCRDT, documents are stored as JSON objects, and edit
//! updates are committed as CRDT transactions. Now, updates are merged
//! without the loss of user's data (no update loss requirement);
//! further, no updates will fail, so that users do not need to redo and
//! resubmit their edits (no failure requirement)."
//!
//! Three authors concurrently edit a shared document: each reads the
//! committed document, adds their own paragraph to their section, and
//! writes the whole document back (read-modify-write, the paper's
//! chaincode pattern). Sections are map keys, paragraphs are list
//! items; concurrent edits to different sections merge key-wise and
//! concurrent paragraph appends union.
//!
//! Run with: `cargo run --release --example collaborative_editing`

use std::sync::Arc;

use fabriccrdt_repro::fabric::chaincode::{
    Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub,
};
use fabriccrdt_repro::fabric::config::PipelineConfig;
use fabriccrdt_repro::fabric::simulation::TxRequest;
use fabriccrdt_repro::fabriccrdt::fabriccrdt_simulation;
use fabriccrdt_repro::jsoncrdt::json::Value;
use fabriccrdt_repro::sim::time::SimTime;

/// Chaincode: read the document, append a paragraph to the caller's
/// section, write the whole document back as a CRDT.
/// Args: [doc key, section, paragraph text].
struct DocEditor;

impl Chaincode for DocEditor {
    fn name(&self) -> &str {
        "doc-editor"
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError> {
        let [key, section, paragraph] = args else {
            return Err(ChaincodeError::new("expected [key, section, paragraph]"));
        };
        let mut doc = match stub.get_state(key) {
            Some(bytes) => Value::from_bytes(bytes)
                .map_err(|e| ChaincodeError::new(format!("stored doc corrupt: {e}")))?,
            None => Value::empty_map(),
        };
        let map = doc
            .as_map_mut()
            .ok_or_else(|| ChaincodeError::new("document must be a JSON map"))?;
        let entry = map
            .entry(section.clone())
            .or_insert_with(|| Value::list([]));
        entry
            .as_list_mut()
            .ok_or_else(|| ChaincodeError::new("section must be a list"))?
            .push(Value::string(paragraph.clone()));
        stub.put_crdt(key, doc.to_bytes());
        Ok(())
    }
}

fn main() {
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(DocEditor));
    let mut sim = fabriccrdt_simulation(PipelineConfig::paper(25, 3), registry);
    sim.seed_state("design-doc", Value::empty_map().to_bytes());

    // Three authors, five edits each, all submitted close together so
    // most edits of a round conflict.
    let authors = [
        ("alice", "introduction"),
        ("bob", "evaluation"),
        ("carol", "introduction"), // carol edits the same section as alice
    ];
    let mut schedule = Vec::new();
    let mut i = 0u64;
    for round in 0..5 {
        for (author, section) in authors {
            schedule.push((
                SimTime::from_millis(i * 4),
                TxRequest::new(
                    "doc-editor",
                    vec![
                        "design-doc".into(),
                        section.into(),
                        format!("[{author} v{round}] …paragraph text…"),
                    ],
                ),
            ));
            i += 1;
        }
    }
    let total = schedule.len();

    let metrics = sim.run(schedule);
    println!(
        "{} edits submitted, {} committed, {} failed",
        total,
        metrics.successful(),
        metrics.failed()
    );
    assert_eq!(metrics.failed(), 0, "no failure requirement");

    // Read the final document straight from the committed world state.
    let stored = sim
        .peer()
        .state()
        .value("design-doc")
        .expect("document committed");
    let doc = Value::from_bytes(stored).expect("valid JSON");
    println!("\nFinal committed document:\n{}", doc.to_pretty_string());

    // Every author's every edit is present — no update loss.
    for (author, section) in authors {
        let list = doc.get(section).unwrap().as_list().unwrap();
        for round in 0..5 {
            let needle = format!("[{author} v{round}]");
            assert!(
                list.iter()
                    .any(|p| p.as_str().unwrap().starts_with(&needle)),
                "missing edit {needle}"
            );
        }
    }
    println!("Every edit by every author is present in the merged document.");
    println!("On Fabric, concurrent edits to the same key would have failed");
    println!("MVCC validation and users would resubmit — FabricCRDT merges them (§6).");
}
