//! §6: exception support ("we are building support for certain
//! constructs, such as exceptions, unions, and the CORBA Any type").
//!
//! Declared exceptions — IDL `raises`, Java `throws` — lower into the
//! reply as a Choice whose alternative 0 is the normal return and whose
//! other alternatives are the exception structures. Checked failures
//! therefore travel in-band as data, cross languages structurally like
//! any other type, and round-trip the wire.

use mockingbird::values::MValue;
use mockingbird::{Mode, Session};

const IDL: &str = "
exception NotFound { long code; string what; };
interface Store {
  long lookup(in string key) raises (NotFound);
};";

const JAVA: &str = "
public class NotFoundExc {
    private int code;
    private String what;
}
public interface JStore {
    int lookup(String key) throws NotFoundExc;
}";

fn annotated_session() -> Session {
    let mut s = Session::new();
    s.load_idl(IDL).unwrap();
    s.load_java(JAVA).unwrap();
    s
}

#[test]
fn raises_lowers_into_a_reply_choice() {
    let mut s = annotated_session();
    let shown = s.display_mtype("Store").unwrap();
    // The *reply* port's payload is Choice(Record(normal-int), NotFound)
    // — distinguish it from the outer interface Choice by looking at the
    // inner port.
    assert!(
        shown.contains("port(Choice(Record(Int{"),
        "reply payload must be a Choice over the normal return: {shown}"
    );
    assert!(
        shown.contains("Char{Unicode}"),
        "NotFound carries its string: {shown}"
    );
    // Without the exception the reply is a plain Record.
    s.load_idl("interface Plain { long lookup(in string key); };")
        .unwrap();
    let plain = s.display_mtype("Plain").unwrap();
    assert!(plain.contains("port(Record(Int{"), "{plain}");
    assert!(!plain.contains("port(Choice(Record(Int{"), "{plain}");
}

#[test]
fn java_throws_matches_idl_raises() {
    let mut s = annotated_session();
    let plan = s
        .compare("JStore", "Store", Mode::Equivalence)
        .expect("matching exceptions make the interfaces equivalent");
    assert!(plan.len() >= 4);
}

#[test]
fn mismatched_exception_sets_do_not_match() {
    let mut s = Session::new();
    s.load_idl(IDL).unwrap();
    // A Java interface that declares no exceptions cannot match the
    // raising IDL operation.
    s.load_java("public interface NoThrow { int lookup(String key); }")
        .unwrap();
    assert!(s.compare("NoThrow", "Store", Mode::Equivalence).is_err());
}

#[test]
fn exception_values_convert_between_the_declarations() {
    let mut s = annotated_session();
    let plan = s.compare("JStore", "Store", Mode::Equivalence).unwrap();
    // The reply payload pair: locate it via the stub shape machinery.
    let j = s.mtype("JStore").unwrap();
    let i = s.mtype("Store").unwrap();
    let jshape = mockingbird::stubgen::FnShape::of_function(plan.left_graph(), j).unwrap();
    let ishape = mockingbird::stubgen::FnShape::of_function(plan.right_graph(), i).unwrap();

    // Normal return: alternative 0 wrapping the output record.
    let ok = MValue::Choice {
        index: 0,
        value: Box::new(MValue::Record(vec![MValue::Int(42)])),
    };
    let converted = plan
        .convert_pair(jshape.output, ishape.output, &ok)
        .unwrap();
    assert_eq!(converted, ok, "normal replies pass through");

    // Exceptional return: alternative 1 carrying NotFoundExc{code, what}.
    let exc = MValue::Choice {
        index: 1,
        value: Box::new(MValue::Record(vec![
            MValue::Int(404),
            MValue::string("no such key"),
        ])),
    };
    let converted = plan
        .convert_pair(jshape.output, ishape.output, &exc)
        .unwrap();
    assert_eq!(converted, exc, "exception payloads convert structurally");
    // And backwards.
    assert_eq!(
        plan.convert_pair_back(jshape.output, ishape.output, &converted)
            .unwrap(),
        exc
    );
}

#[test]
fn exception_replies_cross_the_wire() {
    use mockingbird::values::Endian;
    use mockingbird::wire::{CdrReader, CdrWriter};

    let mut s = annotated_session();
    let i = s.mtype("Store").unwrap();
    let shape = mockingbird::stubgen::FnShape::of_function(s.graph(), i).unwrap();
    let exc = MValue::Choice {
        index: 1,
        value: Box::new(MValue::Record(vec![
            MValue::Int(404),
            MValue::string("missing"),
        ])),
    };
    for endian in [Endian::Little, Endian::Big] {
        let mut w = CdrWriter::new(endian);
        w.put_value(s.graph(), shape.output, &exc).unwrap();
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, endian);
        assert_eq!(r.get_value(s.graph(), shape.output).unwrap(), exc);
    }
}

#[test]
fn project_files_preserve_throws() {
    let s = annotated_session();
    let dir = std::env::temp_dir().join(format!("mockingbird-exc-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("exc.mbproj.json");
    s.save_project("exc", &path).unwrap();
    let mut restored = Session::load_project(&path).unwrap();
    assert!(restored
        .compare("JStore", "Store", Mode::Equivalence)
        .is_ok());
    std::fs::remove_file(path).ok();
}
