//! SmallBank — the asset-transfer workload the paper warns about.
//!
//! §6: *"financial applications like SmallBank or FabCoin, which are
//! developed for Fabric, are bad choices to be adapted as a CRDT-based
//! blockchain application"* — CRDT merging skips the repeatable-read
//! isolation transfers rely on.
//!
//! This module implements the classic SmallBank operations as a
//! chaincode with both a classic (`put_state`) and a naive CRDT-port
//! (`put_crdt`) variant, plus an invariant checker. On Fabric the MVCC
//! validator serializes conflicting transfers (failures, but money is
//! conserved); on the naive CRDT port every transfer commits and the
//! register-level last-writer-wins merge *loses updates* — total money
//! is no longer conserved. The `smallbank_*` tests quantify exactly the
//! §6 claim.

use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeError, ChaincodeStub};
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_ledger::worldstate::WorldState;

/// Account state: checking and savings balances (stringified integers,
/// per the paper's §5.2 convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Balances {
    /// Checking balance.
    pub checking: i64,
    /// Savings balance.
    pub savings: i64,
}

impl Balances {
    /// Serializes to the stored JSON document.
    pub fn to_value(self) -> Value {
        let mut v = Value::empty_map();
        v.insert("checking", Value::string(self.checking.to_string()));
        v.insert("savings", Value::string(self.savings.to_string()));
        v
    }

    /// Parses from the stored JSON document.
    pub fn parse(value: &Value) -> Option<Balances> {
        let field = |name: &str| {
            value
                .get(name)
                .and_then(Value::as_str)
                .and_then(|s| s.parse::<i64>().ok())
        };
        Some(Balances {
            checking: field("checking")?,
            savings: field("savings")?,
        })
    }
}

/// The SmallBank chaincode.
///
/// Operations (first argument selects one):
///
/// - `deposit_checking <account> <amount>`
/// - `transact_savings <account> <amount>` (may be negative; rejects
///   overdrafts)
/// - `send_payment <from> <to> <amount>` (rejects overdrafts)
/// - `write_check <account> <amount>` (checking may go negative, as in
///   the original benchmark)
/// - `amalgamate <account>` (moves all savings into checking)
#[derive(Debug, Clone, Copy)]
pub struct SmallBankChaincode {
    crdt: bool,
}

impl SmallBankChaincode {
    /// Classic variant: plain writes, protected by MVCC.
    pub fn classic() -> Self {
        SmallBankChaincode { crdt: false }
    }

    /// Naive CRDT port: the same logic submitted via `put_crdt` — the
    /// §6 anti-pattern, provided so its anomalies can be demonstrated.
    pub fn naive_crdt_port() -> Self {
        SmallBankChaincode { crdt: true }
    }

    fn load(
        &self,
        stub: &mut ChaincodeStub<'_>,
        account: &str,
    ) -> Result<Balances, ChaincodeError> {
        let bytes = stub
            .get_state(account)
            .ok_or_else(|| ChaincodeError::new(format!("unknown account {account}")))?;
        let value = Value::from_bytes(bytes)
            .map_err(|e| ChaincodeError::new(format!("corrupt account: {e}")))?;
        Balances::parse(&value).ok_or_else(|| ChaincodeError::new("malformed balances"))
    }

    fn store(&self, stub: &mut ChaincodeStub<'_>, account: &str, balances: Balances) {
        let bytes = balances.to_value().to_bytes();
        if self.crdt {
            stub.put_crdt(account, bytes);
        } else {
            stub.put_state(account, bytes);
        }
    }
}

fn amount_arg(args: &[String], index: usize) -> Result<i64, ChaincodeError> {
    args.get(index)
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| ChaincodeError::new("amount must be an integer"))
}

impl Chaincode for SmallBankChaincode {
    fn name(&self) -> &str {
        if self.crdt {
            "smallbank-crdt"
        } else {
            "smallbank"
        }
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError> {
        let op = args.first().map(String::as_str).unwrap_or("");
        match op {
            "deposit_checking" => {
                let account = &args[1];
                let amount = amount_arg(args, 2)?;
                let mut b = self.load(stub, account)?;
                b.checking += amount;
                self.store(stub, account, b);
            }
            "transact_savings" => {
                let account = &args[1];
                let amount = amount_arg(args, 2)?;
                let mut b = self.load(stub, account)?;
                if b.savings + amount < 0 {
                    return Err(ChaincodeError::new("insufficient savings"));
                }
                b.savings += amount;
                self.store(stub, account, b);
            }
            "send_payment" => {
                let (from, to) = (&args[1], &args[2]);
                let amount = amount_arg(args, 3)?;
                let mut src = self.load(stub, from)?;
                let mut dst = self.load(stub, to)?;
                if src.checking < amount {
                    return Err(ChaincodeError::new("insufficient funds"));
                }
                src.checking -= amount;
                dst.checking += amount;
                self.store(stub, from, src);
                self.store(stub, to, dst);
            }
            "write_check" => {
                let account = &args[1];
                let amount = amount_arg(args, 2)?;
                let mut b = self.load(stub, account)?;
                b.checking -= amount;
                self.store(stub, account, b);
            }
            "amalgamate" => {
                let account = &args[1];
                let mut b = self.load(stub, account)?;
                b.checking += b.savings;
                b.savings = 0;
                self.store(stub, account, b);
            }
            other => return Err(ChaincodeError::new(format!("unknown operation {other:?}"))),
        }
        Ok(())
    }
}

/// Sums all money across accounts in a world state — the conservation
/// invariant (`send_payment`/`amalgamate` must not change it).
pub fn total_money(state: &WorldState, accounts: &[String]) -> i64 {
    accounts
        .iter()
        .filter_map(|a| state.value(a))
        .filter_map(|bytes| Value::from_bytes(bytes).ok())
        .filter_map(|v| Balances::parse(&v))
        .map(|b| b.checking + b.savings)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt::{fabric_simulation, fabriccrdt_simulation};
    use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
    use fabriccrdt_fabric::config::PipelineConfig;
    use fabriccrdt_fabric::simulation::TxRequest;
    use fabriccrdt_sim::rng::SimRng;
    use fabriccrdt_sim::time::SimTime;
    use std::sync::Arc;

    const ACCOUNTS: usize = 4;
    const INITIAL: Balances = Balances {
        checking: 1000,
        savings: 1000,
    };

    fn account_names() -> Vec<String> {
        (0..ACCOUNTS).map(|i| format!("acct-{i}")).collect()
    }

    /// Random conservation-preserving payments on few hot accounts.
    fn payment_schedule(chaincode: &str, n: usize, seed: u64) -> Vec<(SimTime, TxRequest)> {
        let mut rng = SimRng::seed_from(seed);
        (0..n)
            .map(|i| {
                let from = rng.gen_range(0, ACCOUNTS as u64);
                let to = (from + 1 + rng.gen_range(0, ACCOUNTS as u64 - 1)) % ACCOUNTS as u64;
                (
                    SimTime::from_secs_f64(i as f64 / 300.0),
                    TxRequest::new(
                        chaincode,
                        vec![
                            "send_payment".into(),
                            format!("acct-{from}"),
                            format!("acct-{to}"),
                            "10".into(),
                        ],
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn unit_operations() {
        let mut state = WorldState::new();
        state.put(
            "a".into(),
            INITIAL.to_value().to_bytes(),
            fabriccrdt_ledger::version::Height::new(1, 0),
        );
        let cc = SmallBankChaincode::classic();

        let mut stub = ChaincodeStub::new(&state);
        cc.invoke(&mut stub, &["amalgamate".into(), "a".into()])
            .unwrap();
        let (rwset, _) = stub.into_result();
        let stored = Value::from_bytes(&rwset.writes.get("a").unwrap().value).unwrap();
        assert_eq!(
            Balances::parse(&stored).unwrap(),
            Balances {
                checking: 2000,
                savings: 0
            }
        );

        let mut stub = ChaincodeStub::new(&state);
        assert!(cc
            .invoke(
                &mut stub,
                &["transact_savings".into(), "a".into(), "-2000".into()]
            )
            .is_err());
        let mut stub = ChaincodeStub::new(&state);
        assert!(cc
            .invoke(
                &mut stub,
                &[
                    "send_payment".into(),
                    "a".into(),
                    "a".into(),
                    "99999".into()
                ]
            )
            .is_err());
        let mut stub = ChaincodeStub::new(&state);
        assert!(cc.invoke(&mut stub, &["bogus".into()]).is_err());
        let mut stub = ChaincodeStub::new(&state);
        assert!(cc
            .invoke(
                &mut stub,
                &["deposit_checking".into(), "ghost".into(), "1".into()]
            )
            .is_err());
    }

    /// On Fabric, conflicting payments fail but money is conserved.
    #[test]
    fn smallbank_on_fabric_conserves_money() {
        let mut registry = ChaincodeRegistry::new();
        registry.deploy(Arc::new(SmallBankChaincode::classic()));
        let mut sim = fabric_simulation(PipelineConfig::paper(25, 17), registry);
        for account in account_names() {
            sim.seed_state(account, INITIAL.to_value().to_bytes());
        }
        let metrics = sim.run(payment_schedule("smallbank", 200, 17));
        assert!(metrics.failed() > 0, "hot accounts conflict");
        let total = total_money(sim.peer().state(), &account_names());
        assert_eq!(total, (ACCOUNTS as i64) * 2000, "money conserved");
    }

    /// On the naive CRDT port, everything commits — and balances are
    /// wrong: register-level LWW merges lose concurrent transfers. This
    /// is the paper's §6 argument, quantified. (Every payment commits,
    /// so the correct outcome is initial + net per-account deltas;
    /// addition commutes, so ordering cannot excuse a difference.)
    #[test]
    fn smallbank_naive_crdt_port_loses_updates() {
        let mut registry = ChaincodeRegistry::new();
        registry.deploy(Arc::new(SmallBankChaincode::naive_crdt_port()));
        let mut sim = fabriccrdt_simulation(PipelineConfig::paper(25, 17), registry);
        for account in account_names() {
            sim.seed_state(account, INITIAL.to_value().to_bytes());
        }
        let schedule = payment_schedule("smallbank-crdt", 200, 17);
        let mut expected: Vec<i64> = vec![INITIAL.checking; ACCOUNTS];
        for (_, request) in &schedule {
            let from: usize = request.args[1][5..].parse().unwrap();
            let to: usize = request.args[2][5..].parse().unwrap();
            let amount: i64 = request.args[3].parse().unwrap();
            expected[from] -= amount;
            expected[to] += amount;
        }
        let metrics = sim.run(schedule);
        assert_eq!(metrics.failed(), 0, "CRDT transactions never fail");
        let mut lost = 0i64;
        for (i, account) in account_names().iter().enumerate() {
            let stored = Value::from_bytes(sim.peer().state().value(account).unwrap()).unwrap();
            let actual = Balances::parse(&stored).unwrap().checking;
            lost += (actual - expected[i]).abs();
        }
        assert!(lost > 0, "LWW balance merges must lose concurrent updates");
    }
}
